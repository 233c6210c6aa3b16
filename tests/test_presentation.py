import csv

import numpy as np
import pytest

from feigdim.errors import (
    DomainError,
    IndexOutOfAlphabet,
    NoContraction,
    RatioNotContracting,
)
from feigdim.presentation import (
    _X_SLACK,
    _h_inverse_jets,
    _psi_jets,
    _solve_e_decreasing,
    build_presentation,
    contraction_certificate,
    cylinder_of_word,
    cylinders_csv,
    iter_letter_jets,
    psi,
    tail_bound,
    word_map,
)
from feigdim.unimodal import DEFAULT_ORBIT_MAX, _G_jets, build_system

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
    letters = ps2.letters(7)
    assert letters == list(range(1, 8))
    assert len(ps2.letters(ps2.Kmax)) == ps2.Kmax


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
    val, der = dict(ps2.letter_jets(3, x, nder=1))[2]
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
    "letters": lambda ps, k: ps.letters(k),
}


@pytest.mark.parametrize("k", ["0", "Kmax+1"])
@pytest.mark.parametrize("call", list(_LETTER_CALLS))
def test_letter_outside_the_alphabet_raises(ps2, call, k):
    with pytest.raises(IndexOutOfAlphabet):
        _LETTER_CALLS[call](ps2, 0 if k == "0" else ps2.Kmax + 1)


@pytest.mark.parametrize("ell", [2, 20])
def test_psi_is_the_kth_item_of_the_jet_stream(ell):
    ps = build_presentation(build_system(solve_ell(ell)))
    x = np.linspace(*ps.interval, 9)
    for deriv in (0, 1):
        stream = dict(iter_letter_jets(ps, ps.Kmax, x, deriv))
        for k in (1, 7, ps.Kmax):
            assert np.array_equal(psi(ps, k, x, deriv), stream[k][deriv])


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


def test_letter_jets_match_psi(ps2):
    x = np.linspace(*ps2.interval, 9)
    stream = list(iter_letter_jets(ps2, 5, x, nder=1))
    assert [letter for letter, _ in stream] == ps2.letters(5)
    for k, (val, der) in stream:
        assert np.allclose(val, psi(ps2, k, x), atol=1e-13)
        assert np.allclose(der, psi(ps2, k, x, deriv=1), atol=1e-13)


def test_orbit_table_length(ps2):
    # letter Kmax ends at c_{3*2^Kmax}, far past the orbit budget: the
    # table always runs to index DEFAULT_ORBIT_MAX
    assert len(ps2.orbit) == DEFAULT_ORBIT_MAX + 1


def test_cylinders_csv_round_trip(ps2, tmp_path):
    path = str(tmp_path / "cyl.csv")
    cylinders_csv(ps2, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["k", "left", "right", "sup_deriv", "min_deriv"]
    assert [int(row["k"]) for row in rows] == ps2.letters(ps2.Kmax)
    cylinders = [[float(row["left"]), float(row["right"])] for row in rows]
    assert np.array_equal(cylinders, ps2.cylinders)
    for row in rows:
        assert float(row["sup_deriv"]) >= float(row["min_deriv"]) > 0.0


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
    for k, (val, der) in iter_letter_jets(ps, ps.Kmax, x):
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
