import ast
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from feigdim.cheb import eval01, heads, restrict01
from feigdim.errors import (
    DomainError,
    IndexOutOfAlphabet,
    InvariantViolation,
    NoContraction,
    RatioNotContracting,
)
from feigdim.presentation import (
    _W_PAD,
    _X_SLACK,
    _bisection_cells,
    _h_inverse_jets,
    _psi_jets,
    _rho_density,
    _solve_e_decreasing,
    build_presentation,
    contraction_certificate,
    cylinder_of_word,
    iter_letter_jets,
    psi,
    tail_bound,
    word_map,
)
from feigdim.unimodal import (
    DEFAULT_ORBIT_MAX,
    _G_jets,
    _power_jets,
    build_system,
    critical_orbit,
)

from conftest import solve_ell
from oracles import (
    bisect_decreasing,
    fd_derivative,
    letter_stream_on_E,
    psi_alt,
)

I_2 = (0.5759648680838572, 1.0)


def test_interval_endpoints(ps2):
    lo, hi = ps2.interval
    assert abs(lo - I_2[0]) < 1e-10
    assert abs(hi - I_2[1]) < 1e-12


def test_letters_order_and_length(ps2):
    # the stream yields one jet tuple per letter, letters 1..K in order:
    # the k-th tuple is psi_k's
    x = np.linspace(*ps2.interval, 5)
    for deriv in (0, 1):
        stream = list(iter_letter_jets(ps2, 7, x, deriv))
        assert len(stream) == 7
        for k, jets in enumerate(stream, 1):
            assert len(jets) == deriv + 1
            assert np.array_equal(jets[deriv], psi(ps2, k, x, deriv))
    assert len(list(iter_letter_jets(ps2, ps2.Kmax, x, 0))) == ps2.Kmax


def test_cylinder_endpoints_match_orbit(ps2):
    assert ps2.k_verify >= 10
    for k in range(1, 11):
        left, right = cylinder_of_word(ps2, [k])
        want = sorted((ps2.orbit[2 ** k], ps2.orbit[3 * 2 ** k]))
        assert abs(left - want[0]) < 1e-8
        assert abs(right - want[1]) < 1e-8


def test_cylinders_disjoint_and_inside_I(ps2):
    cyl = ps2.cylinders
    lo, hi = ps2.interval
    # beyond k ~ 38 the width drops under one ulp of x_c, so only demand
    # strict widths on the resolvable part of the table
    assert np.all(cyl[:30, 0] < cyl[:30, 1])
    assert np.all(cyl[:, 0] <= cyl[:, 1])
    assert np.all(cyl[:, 0] >= lo - 1e-12)
    assert np.all(cyl[:, 1] <= hi + 1e-12)
    order = np.argsort(cyl[:, 0])
    gaps = cyl[order[1:], 0] - cyl[order[:-1], 1]
    assert np.all(gaps > -1e-12)


def test_psi_agrees_with_alt_form(ps2):
    x = np.linspace(*ps2.interval, 17)
    for k in range(1, 7):
        a = psi(ps2, k, x)
        b = psi_alt(ps2, k, x)
        assert float(np.max(np.abs(a - b))) < 1e-10
        da = psi(ps2, k, x, deriv=1)
        db = psi_alt(ps2, k, x, deriv=1)
        assert float(np.max(np.abs(da - db))) < 1e-10


def test_psi_derivative_vs_finite_differences(ps2):
    x0 = 0.71
    for k in (1, 3, 8):
        d = psi(ps2, k, x0, deriv=1)
        fd = fd_derivative(lambda x: psi(ps2, k, x), x0, 1, 1e-6)
        assert abs(d - fd) < 1e-6 * max(abs(d), 1e-12)


def test_letter_jets_method_matches_psi(ps2):
    x = np.array([0.6, 0.8, 0.97])
    val, der = list(ps2.letter_jets(3, x, nder=1))[1]
    assert np.allclose(val, psi(ps2, 2, x))
    assert np.allclose(der, psi(ps2, 2, x, deriv=1))


def test_psi_rejects_x_outside_I(ps2):
    with pytest.raises(DomainError):
        psi(ps2, 1, 0.3)
    with pytest.raises(DomainError):
        psi(ps2, 1, 1.2)
    # NaN is in no interval
    with pytest.raises(DomainError):
        psi(ps2, 1, float("nan"))
    with pytest.raises(DomainError):
        word_map(ps2, [1], float("nan"))


_LETTER_CALLS = {
    "psi": lambda ps, k: psi(ps, k, 0.7),
    "word_map": lambda ps, k: word_map(ps, [1, k], 0.7),
    "iter_letter_jets": lambda ps, k: next(iter_letter_jets(ps, k, [0.7])),
}


@pytest.mark.parametrize("k", ["0", "Kmax+1", "2.5", "True"])
@pytest.mark.parametrize("call", list(_LETTER_CALLS))
def test_letter_outside_the_alphabet_raises(ps2, call, k):
    # a letter is an integer depth: 2.5 is no letter, not a TypeError, and
    # True is no letter, not letter 1
    letter = {"0": 0, "2.5": 2.5, "True": True}.get(k, ps2.Kmax + 1)
    with pytest.raises(IndexOutOfAlphabet):
        _LETTER_CALLS[call](ps2, letter)


@pytest.mark.parametrize("ell", [2, 20])
def test_psi_is_the_kth_item_of_the_jet_stream(ell):
    ps = build_presentation(build_system(solve_ell(ell)))
    x = np.linspace(*ps.interval, 9)
    for deriv in (0, 1):
        stream = list(iter_letter_jets(ps, ps.Kmax, x, deriv))
        for k in (1, 7, ps.Kmax):
            assert np.array_equal(psi(ps, k, x, deriv), stream[k - 1][deriv])


def test_word_map_composition(ps2):
    w = [2, 1, 4]
    x = 0.66
    y = word_map(ps2, w, x)
    z = psi(ps2, 2, psi(ps2, 1, psi(ps2, 4, x)))
    assert abs(y - z) < 1e-14
    assert word_map(ps2, [], x) == x


def test_word_cylinder_nesting(ps2):
    outer = cylinder_of_word(ps2, [3])
    inner = cylinder_of_word(ps2, [3, 1])
    assert outer[0] - 1e-12 <= inner[0] <= inner[1] <= outer[1] + 1e-12


def test_contraction_certificate(ps2):
    assert 0.0 < ps2.lambda_rho < 1.0
    assert abs(ps2.lambda_rho - 0.277105) < 1e-3
    assert abs(contraction_certificate(ps2) - ps2.lambda_rho) < 1e-12
    # the widest alphabet a certified row builds (Kmax 328 at ell 20)
    ps20 = build_presentation(build_system(solve_ell(20)))
    assert 0.0 < ps20.lambda_rho < 1.0
    assert abs(contraction_certificate(ps20) - ps20.lambda_rho) < 1e-12


@pytest.mark.parametrize("j_margin",
                         [0.0, -0.05, float("nan"), float("inf")])
def test_build_presentation_rejects_non_positive_j_margin(sys2, j_margin):
    # at 0 the density is infinite at the ends of I; below 0, J is inside
    # I; an infinite J has no hyperbolic density
    with pytest.raises(DomainError):
        build_presentation(sys2, j_margin=j_margin)


def test_no_contraction_names_lambda_rho_and_the_margin(sys2, monkeypatch):
    # no system reaches it (lambda_rho is about 0.2-0.3 at the default
    # margin), so every letter is made to stretch the hyperbolic metric
    monkeypatch.setattr("feigdim.presentation._contraction_ratio",
                        lambda J, rho_x, val, der: np.ones_like(der))
    with pytest.raises(NoContraction,
                       match=r"lambda_rho = 1 >= 1 at J margin 0\.2"):
        build_presentation(sys2)


def test_tail_bound_behaviour(ps2):
    t = 0.538
    b20 = tail_bound(ps2, 20, t)
    b30 = tail_bound(ps2, 30, t)
    assert 0.0 < b30 < b20
    # the bound dominates a direct partial sum of the dropped levels
    x = np.linspace(*ps2.interval, 64)
    dropped = 0.0
    for k in range(21, ps2.Kmax + 1):
        der = psi(ps2, k, x, deriv=1)
        dropped += float(np.max(np.abs(der))) ** t
    assert b20 >= dropped


def test_tail_bound_guards(ps2):
    for t in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            tail_bound(ps2, 20, t)
    with pytest.raises(DomainError):
        tail_bound(ps2, 1, 0.5)
    with pytest.raises(DomainError):
        tail_bound(ps2, ps2.Kmax + 5, 0.5)
    with pytest.raises(RatioNotContracting):
        tail_bound(ps2, 20, 1e-4)


@pytest.mark.parametrize("K", [10.5, 20.0])
def test_tail_bound_needs_an_integer_truncation(ps2, K):
    # a truncation counts letters: 10.5 is a usage error, not an IndexError
    with pytest.raises(DomainError):
        tail_bound(ps2, K, 0.5)


def test_letter_jets_match_psi(ps2):
    x = np.linspace(*ps2.interval, 9)
    stream = list(iter_letter_jets(ps2, 5, x, nder=1))
    assert len(stream) == 5
    for k, (val, der) in enumerate(stream, 1):
        assert np.allclose(val, psi(ps2, k, x), atol=1e-13)
        assert np.allclose(der, psi(ps2, k, x, deriv=1), atol=1e-13)


def test_orbit_table_length():
    # the orbit is as deep as the doubling-defect scan reads: index
    # 2^(k_verify + 3) where the scan stops below k_fit = 10, and the whole
    # DEFAULT_ORBIT_MAX budget once k_verify reaches k_fit
    for ell, entries in ((2, 4097), (8, 513), (20, 129)):
        sys = build_system(solve_ell(ell))
        ps = build_presentation(sys)
        n = DEFAULT_ORBIT_MAX if ps.k_verify == 10 else 8 << ps.k_verify
        assert len(ps.orbit) == n + 1 == entries
        assert np.array_equal(ps.orbit, critical_orbit(sys, n))


@pytest.mark.parametrize("ell", [2, 20])
def test_certificate_matches_a_per_letter_loop(ell):
    # the stacked certificate and tail levels against the letter-by-letter
    # running maximum they replace, on the same 200 + 64 point grid
    ps = build_presentation(build_system(solve_ell(ell)))
    x = np.concatenate([np.linspace(*ps.I, 200), np.linspace(*ps.I, 64)])
    rho_x = _rho_density(ps.J, x[:200])
    worst, levels = 0.0, np.empty(ps.Kmax)
    for k, (val, der) in enumerate(iter_letter_jets(ps, ps.Kmax, x), 1):
        ratio = np.abs(der[:200]) * _rho_density(ps.J, val[:200]) / rho_x
        worst = np.maximum(worst, ratio.max())
        levels[k - 1] = np.max(np.abs(der[200:]))
    assert ps.lambda_rho == float(worst)
    assert np.array_equal(ps.tail_levels, levels)


def test_tail_levels_match_psi_jets(ps2):
    x = np.linspace(*ps2.interval, 64)
    assert ps2.tail_levels.shape == (ps2.Kmax,)
    for k in range(1, ps2.Kmax + 1):
        want = float(np.max(np.abs(_psi_jets(ps2, k, x, 1)[1])))
        assert ps2.tail_levels[k - 1] == want


def test_tail_bound_matches_two_level_formula(ps2):
    x = np.linspace(*ps2.interval, 64)
    for K, t in ((2, 0.9), (12, 0.3), (20, 0.538), (ps2.Kmax, 0.75)):
        levels = [float(np.max(np.abs(_psi_jets(ps2, kk, x, 1)[1]))) ** t
                  for kk in (K - 1, K)]
        ratio = 1.1 * levels[1] / levels[0]
        assert tail_bound(ps2, K, t) == levels[1] * ratio / (1.0 - ratio)


def _bisect_reference(fp, targets, lo, hi):
    """The plain inversion: 52 bisection steps, then 3 Newton steps."""
    z = bisect_decreasing(fp.E, targets, lo, hi, 52)
    for _ in range(3):
        z = np.clip(z - (fp.E(z) - targets) / fp.E(z, 1), lo, hi)
    return z


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_bracketed_newton_matches_bisection(ell):
    # the branch's own range [c_1, c_3] = [0, 1/tau], solved on G's series
    # in w = tau z and checked against E's full series in z
    sys = build_system(solve_ell(ell))
    fp = sys.fp
    lo, hi = 0.0, 1.0 / sys.tau
    targets = np.linspace(float(fp.E(hi)), float(fp.E(lo)), 2001)
    z = _solve_e_decreasing(sys, targets) / sys.tau
    ref = _bisect_reference(fp, targets, lo, hi)
    # no clip at the ends: a root within roundoff outside may stand
    assert np.all((z >= lo - 2e-15) & (z <= hi + 2e-15))
    assert float(np.max(np.abs(z - ref))) <= 2e-15
    assert float(np.max(np.abs(fp.E(z) - targets))) <= 2e-15


def _bisected_newton(sys, targets):
    """The bracket by 8 bisection steps on [-2^-10, 1 + 2^-10], then 4
    clipped Newton steps from its midpoint: the reference for the
    searchsorted bracket and its Hermite-started Newton step. Returns the
    root and the bracket's lower end."""
    values, jets = sys.g_tables[0][:, 0], sys.g_tables[1]
    a = np.full(targets.shape, -2.0 ** -10)
    b = np.full(targets.shape, 1.0 + 2.0 ** -10)
    for _ in range(8):
        mid = 0.5 * (a + b)
        high = eval01(values, mid) > targets
        a = np.where(high, mid, a)
        b = np.where(high, b, mid)
    w = 0.5 * (a + b)
    for _ in range(4):
        e, e1 = eval01(jets, w)
        w = np.clip(w - (e - targets) / e1, a, b)
    return w, a


def _bisection_targets(ps, ell):
    """Every x psi accepts, the ends of I widened by 1e-9, e at every
    point the bisection can reach (ties, where e(mid) > target decides),
    and targets past both ends of e's range."""
    lo, hi = ps.interval
    x = np.concatenate([np.linspace(lo - 1e-9, hi + 1e-9, 20001),
                        [lo - 1e-9, lo, hi, hi + 1e-9]])
    pad = 2.0 ** -10
    grid = -pad + np.arange(257) * ((1.0 + 2.0 * pad) / 256)
    eg = eval01(ps.sys.g_tables[0][:, 0], grid)
    return np.concatenate([x ** (1.0 / ell), eg, [eg[0] + 1.0, -1.0]])


@pytest.mark.parametrize("ell", range(2, 23, 2))
def test_lookup_bracket_matches_eight_bisection_steps(ell):
    # searchsorted finds the bisection's cell bit for bit, also on targets
    # equal to e's grid values; the root, one Newton step from the Hermite
    # start, is within 4 ulp of the target, carried to w by 1/|e'|, of the
    # reference's four steps from the midpoint (observed: at most 3.0), and
    # both clip to the same cell end past e's range
    ps = build_presentation(build_system(solve_ell(ell)))
    grid, eg, _ = _bisection_cells(ps.sys)
    targets = _bisection_targets(ps, ell)
    ref, a = _bisected_newton(ps.sys, targets)
    assert np.array_equal(grid[np.searchsorted(-eg[1:-1], -targets)], a)
    got = _solve_e_decreasing(ps.sys, targets)
    slope = np.abs(eval01(ps.sys.g_tables[1][:, 1], ref))
    assert np.all(np.abs(got - ref) * slope
                  <= 4.0 * np.spacing(np.abs(targets)))


@pytest.mark.parametrize("ell", range(2, 23, 2))
def test_hermite_start_is_within_1e_12_of_the_root(ell):
    # the inverse cubic Hermite interpolant of the lookup cell, before the
    # Newton step (observed: at most 4.5e-14 at ell 22)
    ps = build_presentation(build_system(solve_ell(ell)))
    targets = _bisection_targets(ps, ell)[:-2]
    grid, eg, (c1, c2, c3) = _bisection_cells(ps.sys)
    j = np.searchsorted(-eg[1:-1], -targets, side="left")
    r = targets - eg[j]
    start = grid[j] + r * (c1[j] + r * (c2[j] + r * c3[j]))
    assert np.max(np.abs(start - _bisected_newton(ps.sys, targets)[0])) \
        <= 1e-12


def test_lookup_bracket_needs_a_decreasing_series(sys2):
    flat = np.zeros_like(sys2.g_tables[0])
    bad = replace(sys2, g_tables=(flat,) + sys2.g_tables[1:])
    with pytest.raises(InvariantViolation):
        _solve_e_decreasing(bad, np.array([0.5]))


def _odd_literal_powers(path):
    """Source of every x ** n in a module, n an odd integer literal >= 3."""
    src = open(path).read()
    return [ast.get_source_segment(src, node)
            for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int
            and node.right.value >= 3 and node.right.value % 2]


def test_jets_take_odd_powers_by_products():
    # numpy's x ** 3 calls libm pow, which takes 9.3 ms on 64,000 negative
    # floats against 0.08 ms for x * x * x (numpy 2.4.6, glibc 2.36), and
    # derivatives alternate in sign along the letter stream. The one power
    # kept is H^-1's second-order jet, whose bits the operator bracket of
    # every certified row reads.
    import feigdim.presentation as presentation
    import feigdim.unimodal as unimodal
    assert _odd_literal_powers(presentation.__file__) == ["out[1] ** 3"]
    assert _odd_literal_powers(unimodal.__file__) == []


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_branch_inverts_every_x_psi_accepts(ell):
    # I widened by psi's slack reaches just past z in [0, 1/tau]; the
    # inversion solves there too, instead of clipping to the lap's ends
    ps = build_presentation(build_system(solve_ell(ell)))
    lo, hi = ps.interval
    x = np.array([lo - _X_SLACK, lo, hi, hi + _X_SLACK])
    assert np.all(np.isfinite(psi(ps, 1, x)))
    z = _h_inverse_jets(ps.sys, x, 0)[0]
    assert np.all(np.diff(z) < 0.0)
    assert float(np.max(np.abs(ps.sys.fp.E(z) - x ** (1.0 / ell)))) <= 2e-15


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_letter_stream_matches_steps_on_E(ell):
    # the certified alphabet (Kmax 68, 164, 328) stepped on G's series
    # against the same steps on E's full series. Observed at ell = 20:
    # 2e-14 on values and 6.4e-13 relative on derivatives, roundoff that
    # accumulates over 328 steps contracting by |G'(x_c)| = 0.87 only.
    ps = build_presentation(build_system(solve_ell(ell)))
    x = np.linspace(*ps.interval, 64)
    ref = letter_stream_on_E(ps, ps.Kmax, x)
    for k, (val, der) in enumerate(iter_letter_jets(ps, ps.Kmax, x), 1):
        want_val, want_der = ref[k - 1]
        assert float(np.max(np.abs(val - want_val))) <= 1e-13
        assert float(np.max(np.abs(der / want_der - 1.0))) <= 4e-12


def _two_walk_cylinders(sys, I, Kmax):
    """The cylinder loop as two array walks: the ends of I, then its
    midpoint; returns the cylinders and the walked midpoints."""
    cylinders = np.empty((Kmax, 2))
    mids = np.empty(Kmax)
    ye = _h_inverse_jets(sys, np.array(I), 0)[0]
    ym = _h_inverse_jets(sys, np.array([0.5 * (I[0] + I[1])]), 0)[0]
    for k in range(1, Kmax + 1):
        ye = _G_jets(sys, ye, 0)[0]
        ym = _G_jets(sys, ym, 0)[0]
        cylinders[k - 1] = sorted(ye)
        mids[k - 1] = ym[0]
    return cylinders, mids


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_one_walk_cylinders_match_two_walks(ell):
    # the alphabet a certified row uses (Kmax 68 at ell 2, 328 at ell 20)
    ps = build_presentation(build_system(solve_ell(ell)))
    cylinders, mids = _two_walk_cylinders(ps.sys, ps.interval, ps.Kmax)
    assert float(np.max(np.abs(ps.cylinders - cylinders))) <= 1e-15
    # a midpoint within roundoff of x_c has no side of its own; the
    # resolved ones agree, and the sides alternate over the whole alphabet
    resolved = np.abs(mids - ps.sys.x_c) > 1e-12
    sides = np.where(mids < ps.sys.x_c, 1, -1)
    assert resolved[:20].all()
    assert np.array_equal(ps.branch_side[resolved], sides[resolved])
    assert np.all(ps.branch_side[1:] == -ps.branch_side[:-1])


def test_letter_stream_refuses_points_outside_the_slack(ps2):
    # the level tables hold the stream's points for x within _X_SLACK of I
    lo, hi = ps2.interval
    for x in ([0.7, hi + 2e-9], [lo - 2e-9], [float("nan")]):
        with pytest.raises(DomainError):
            next(iter_letter_jets(ps2, 3, np.array(x)))
    jets = list(iter_letter_jets(ps2, ps2.Kmax, np.array([hi + 5e-10])))
    assert len(jets) == ps2.Kmax
    assert np.all(np.isfinite(jets[-1]))


@pytest.mark.parametrize("ell", range(2, 23, 2))
def test_level_tables_are_G_series_on_their_intervals(ell):
    # each level's order-n table against G's full columns on [a, b],
    # within the chop's 2^-52 of the level column's absolute sum plus m eps
    # of the full column's (observed: at most 0.28 of that). The branch lap
    # comes first, then every cylinder widened by _X_SLACK, the deepest a
    # few rows
    ps = build_presentation(build_system(solve_ell(ell)))
    full = ps.sys.g_tables[3]
    u = np.linspace(0.0, 1.0, 2001)
    eps = np.finfo(float).eps
    assert len(ps.g_levels) == ps.Kmax + 1
    assert ps.g_levels[0][:2] == (-_W_PAD / ps.sys.tau,
                                  (1.0 + _W_PAD) / ps.sys.tau)
    ends = np.array([level[:2] for level in ps.g_levels[1:]])
    assert np.array_equal(ends, ps.cylinders + [-_X_SLACK, _X_SLACK])
    assert ps.g_levels[-1][3][3] <= 5
    for a, b, table, heads in ps.g_levels:
        assert list(heads) == sorted(heads) and len(table) == heads[3]
        assert table.shape[1] == 4 and len(table) <= len(full)
        want = eval01(full, a + (b - a) * u)
        for n in range(4):
            level = table[:heads[n], :n + 1]
            got = eval01(level, u).reshape(n + 1, -1)
            for j in range(n + 1):
                bound = (2.0 ** -52 * np.sum(np.abs(level[:, j]))
                         + len(full) * eps * np.sum(np.abs(full[:, j])))
                assert np.max(np.abs(got[j] - want[j])) <= bound


def _slack_grid(ps):
    lo, hi = ps.interval
    return np.linspace(lo - _X_SLACK, hi + _X_SLACK, 1001)


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_every_stream_step_reads_inside_its_level(ell):
    # step k reads G at psi_{k-1}(x), or at H^{-1}(x) for k = 1, on level
    # k - 1, and q at psi_k(x) on level k
    ps = build_presentation(build_system(solve_ell(ell)))
    x = _slack_grid(ps)
    y = _h_inverse_jets(ps.sys, x, 0)[0]
    for k, (val,) in enumerate(iter_letter_jets(ps, ps.Kmax, x, 0), 1):
        for level, points in ((k - 1, y), (k, val)):
            a, b = ps.g_levels[level][:2]
            assert a <= points.min() and points.max() <= b
        y = val


def _clenshaw_decimal(c, s):
    b1 = b2 = Decimal(0)
    for ck in reversed(c[1:]):
        b1, b2 = 2 * s * b1 - b2 + ck, b1
    return s * b1 - b2 + c[0]


def _decimal_stream(ps, x, K):
    """Third-order jets of psi_1..psi_K at the floats x, stepped from
    _h_inverse_jets' start on G's full series (the columns e..e''' of
    sys.g_tables[3] on [0, 1]) in 40-digit decimal arithmetic: Clenshaw,
    the chain rule for e o f and the power (e o f)^ell. Item [i][k - 1] is
    letter k's jets at x[i]."""
    ell = ps.sys.ell
    cols = [[Decimal(c) for c in col] for col in ps.sys.g_tables[3].T.tolist()]
    starts = zip(*(jet.tolist() for jet in _h_inverse_jets(ps.sys, x, 3)))
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for start in starts:
            f, jets = [Decimal(v) for v in start], []
            for _ in range(K):
                e = [_clenshaw_decimal(col, 2 * f[0] - 1) for col in cols]
                h = [e[0], e[1] * f[1], e[2] * f[1] ** 2 + e[1] * f[2],
                     e[3] * f[1] ** 3 + 3 * e[2] * f[1] * f[2] + e[1] * f[3]]
                b = h[0]    # the derivatives of b^ell, then the chain rule
                p = [ell * b ** (ell - 1), ell * (ell - 1) * b ** (ell - 2),
                     ell * (ell - 1) * (ell - 2) * b ** (ell - 3)]
                f = [b ** ell, p[0] * h[1], p[1] * h[1] ** 2 + p[0] * h[2],
                     p[2] * h[1] ** 3 + 3 * p[1] * h[1] * h[2] + p[0] * h[3]]
                jets.append(f)
            out.append(jets)
    return out


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_level_jets_match_steps_on_the_full_series(ell):
    # the third-order stream on its levels against G's full series on
    # [0, 1] stepped from the same start in 40-digit decimal arithmetic, on
    # a dozen points of I widened by _X_SLACK: relative 1e-13 over the
    # letters a certified row reads (K = 42, 98, 209) and 1e-12 over the
    # alphabet, whose deep letters add roundoff step by step (observed at
    # ell 20: 4.6e-14 and 1.4e-13)
    ps = build_presentation(build_system(solve_ell(ell)))
    x = np.linspace(ps.interval[0] - _X_SLACK, ps.interval[1] + _X_SLACK, 12)
    ref = _decimal_stream(ps, x, ps.Kmax)
    k_row = {2: 42, 8: 98, 20: 209}[ell]
    for k, jets in enumerate(iter_letter_jets(ps, ps.Kmax, x, 3), 1):
        rtol = 1e-13 if k <= k_row else 1e-12
        for n, got in enumerate(jets):
            want = np.array([float(point[k - 1][n]) for point in ref])
            assert np.max(np.abs(got - want) / np.abs(want)) <= rtol


def _stream_by_steps(ps, K, x, nder, q=None):
    """iter_letter_jets's items, step by step on the route the stream took
    before it ran from a plan: each step merges its level's jet table with
    q's series on the level (cut to its head) into a fresh table, reads it
    by eval01 at (f - a) / (b - a), then applies the chain rule and
    _power_jets; q alone is read by eval01 on level K."""
    n, lo, hi = min(nder, 3), *ps.I
    cols = None if q is None else np.reshape(q, (len(q), -1))

    def q_on(level):
        a, b = ps.g_levels[level][:2]
        qk = restrict01(cols, (a - lo) / (hi - lo), (b - lo) / (hi - lo))
        return qk[:np.max(heads(qk))]

    items, jets = [], _h_inverse_jets(ps.sys, x, nder)
    for k in range(1, K + 1):
        a, b, level, hd = ps.g_levels[k - 1]
        table = level[:hd[n], :n + 1]
        if cols is not None and k > 1:
            qk, jet = q_on(k - 1), table
            table = np.zeros((max(len(jet), len(qk)), n + 1 + qk.shape[1]))
            table[:len(jet), :n + 1], table[:len(qk), n + 1:] = jet, qk
        g = eval01(table, (jets[0] - a) / (b - a))
        if nder >= 2:
            sq = jets[1] * jets[1]
            if nder >= 3:
                g[3] *= sq * jets[1]
                g[3] += 3.0 * g[2] * jets[1] * jets[2]
                g[3] += g[1] * jets[3]
            g[2] *= sq
            g[2] += np.multiply(g[1], jets[2], out=sq)
        if nder >= 1:
            g[1] *= jets[1]
        if k > 1 and cols is not None:
            items.append((*jets, g[n + 1:].reshape(np.shape(q)[1:] + x.shape)))
        jets = tuple(_power_jets(g[:n + 1], ps.sys.ell))
        if cols is None:
            items.append(jets)
    if cols is not None:
        a, b = ps.g_levels[K][:2]
        qk = eval01(q_on(K), (jets[0] - a) / (b - a))
        items.append((*jets, qk.reshape(np.shape(q)[1:] + x.shape)))
    return items


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_planned_stream_matches_the_step_by_step_route(ell):
    # bit for bit: the plan changes where the set-up runs, not one operand
    # or operation of a step
    ps = build_presentation(build_system(solve_ell(ell)))
    rng = np.random.default_rng(ell)
    q1, q2 = rng.normal(size=16), rng.normal(size=(9, 2))
    for x in (np.linspace(*ps.I, 32), np.linspace(*ps.I, 5000)):
        K = ps.Kmax if x.size < 5000 else 30
        for nder in range(4):
            for q in (None, q1, q2):
                got = list(iter_letter_jets(ps, K, x, nder, q))
                want = _stream_by_steps(ps, K, x, nder, q)
                assert len(got) == len(want) == K
                for g, w in zip(got, want):
                    assert len(g) == len(w)
                    assert all(a.shape == b.shape and np.array_equal(a, b)
                               for a, b in zip(g, w))
