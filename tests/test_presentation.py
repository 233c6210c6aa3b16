import csv

import numpy as np
import pytest

from feigdim.errors import (
    DomainError,
    IndexOutOfAlphabet,
    OrbitIndexOverflow,
    RatioNotContracting,
)
from feigdim.presentation import (
    _psi_jets,
    _solve_E_decreasing,
    build_presentation,
    contraction_certificate,
    cylinder_of_word,
    cylinders_csv,
    decay_profile,
    iter_letter_jets,
    psi,
    psi_alt,
    tail_bound,
    word_map,
)
from feigdim.unimodal import build_system

from conftest import solve_ell
from oracles import fd_derivative

I_2 = (0.5759648680838572, 1.0)


def test_interval_endpoints(ps2):
    lo, hi = ps2.interval
    assert abs(lo - I_2[0]) < 1e-10
    assert abs(hi - I_2[1]) < 1e-12
    assert ps2.p == 2


def test_letters_order_and_length(ps2):
    letters = ps2.letters(7)
    assert letters == [(k, 1) for k in range(1, 8)]
    assert len(ps2.letters()) == ps2.Kmax
    with pytest.raises(IndexOutOfAlphabet):
        ps2.letters(ps2.Kmax + 1)


def test_cylinder_endpoints_match_orbit(ps2):
    assert ps2.k_verify >= 10
    for k in range(1, 11):
        left, right = cylinder_of_word(ps2, [(k, 1)])
        want = sorted((ps2.orbit_index(2 ** k), ps2.orbit_index(3 * 2 ** k)))
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
        a = psi(ps2, k, 1, x)
        b = psi_alt(ps2, k, 1, x)
        assert float(np.max(np.abs(a - b))) < 1e-10
        da = psi(ps2, k, 1, x, deriv=1)
        db = psi_alt(ps2, k, 1, x, deriv=1)
        assert float(np.max(np.abs(da - db))) < 1e-10


def test_psi_derivative_vs_finite_differences(ps2):
    x0 = 0.71
    for k in (1, 3, 8):
        d = psi(ps2, k, 1, x0, deriv=1)
        fd = fd_derivative(lambda x: psi(ps2, k, 1, x), x0, 1, 1e-6)
        assert abs(d - fd) < 1e-6 * max(abs(d), 1e-12)


def test_map_eval_jets(ps2):
    x = np.array([0.6, 0.8, 0.97])
    val, der = ps2.map_eval((2, 1), x, nder=1)
    assert np.allclose(val, psi(ps2, 2, 1, x))
    assert np.allclose(der, psi(ps2, 2, 1, x, deriv=1))


def test_psi_rejects_x_outside_I(ps2):
    with pytest.raises(DomainError):
        psi(ps2, 1, 1, 0.3)
    with pytest.raises(DomainError):
        psi(ps2, 1, 1, 1.2)


def test_psi_rejects_bad_letter(ps2):
    with pytest.raises(IndexOutOfAlphabet):
        psi(ps2, 0, 1, 0.7)
    with pytest.raises(IndexOutOfAlphabet):
        psi(ps2, 1, 2, 0.7)
    with pytest.raises(IndexOutOfAlphabet):
        psi(ps2, ps2.Kmax + 1, 1, 0.7)


def test_word_map_composition(ps2):
    w = [(2, 1), (1, 1), (4, 1)]
    x = 0.66
    y = word_map(ps2, w, x)
    z = psi(ps2, 2, 1, psi(ps2, 1, 1, psi(ps2, 4, 1, x)))
    assert abs(y - z) < 1e-14
    assert word_map(ps2, [], x) == x


def test_word_cylinder_nesting(ps2):
    outer = cylinder_of_word(ps2, [(3, 1)])
    inner = cylinder_of_word(ps2, [(3, 1), (1, 1)])
    assert outer[0] - 1e-12 <= inner[0] <= inner[1] <= outer[1] + 1e-12


def test_contraction_certificate(ps2):
    assert 0.0 < ps2.lambda_rho < 1.0
    assert abs(ps2.lambda_rho - 0.277105) < 1e-3
    assert abs(contraction_certificate(ps2) - ps2.lambda_rho) < 1e-12


def test_decay_profile_slopes(ps2, fp2):
    prof = decay_profile(ps2, 1, 0.75, k_window=(12, ps2.Kmax))
    per_step = -np.log(ps2.sys.tau) / fp2.ell
    assert abs(prof.loglin_slope - per_step) < 0.1 * abs(per_step)
    assert prof.table.shape == (ps2.Kmax, 3)
    assert np.all(np.diff(prof.table[:, 1]) < 0.0)


@pytest.mark.parametrize("m", [0, 2])
def test_decay_profile_rejects_letters_outside_the_alphabet(ps2, m):
    with pytest.raises(IndexOutOfAlphabet):
        decay_profile(ps2, m, 0.75)


def test_tail_bound_behaviour(ps2):
    t = 0.538
    b20 = tail_bound(ps2, 20, t)
    b30 = tail_bound(ps2, 30, t)
    assert 0.0 < b30 < b20
    # the bound dominates a direct partial sum of the dropped levels
    x = np.linspace(*ps2.interval, 64)
    dropped = 0.0
    for k in range(21, ps2.Kmax + 1):
        der = psi(ps2, k, 1, x, deriv=1)
        dropped += float(np.max(np.abs(der))) ** t
    assert b20 >= dropped


def test_tail_bound_guards(ps2):
    with pytest.raises(DomainError):
        tail_bound(ps2, 20, 0.0)
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
    for (k, m), (val, der) in stream:
        assert np.allclose(val, psi(ps2, k, m, x), atol=1e-13)
        assert np.allclose(der, psi(ps2, k, m, x, deriv=1), atol=1e-13)


def test_orbit_index_overflow(ps2):
    with pytest.raises(OrbitIndexOverflow):
        ps2.orbit_index(len(ps2.orbit))


def test_strict_orbit_build_rejected(sys2):
    with pytest.raises(OrbitIndexOverflow):
        build_presentation(sys2, Kmax=40, strict_orbit=True)


def test_small_strict_build_succeeds(sys2):
    ps = build_presentation(sys2, Kmax=8, strict_orbit=True)
    assert ps.Kmax == 8
    assert len(ps.orbit) == 2 ** 8 * 4 + 1


def test_cylinders_csv_round_trip(ps2, tmp_path):
    path = str(tmp_path / "cyl.csv")
    cylinders_csv(ps2, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == ps2.Kmax
    for row, (k, m) in zip(rows, ps2.letters()):
        assert int(row["k"]) == k and int(row["m"]) == m
        # 12-digit formatting resolves the width down to k ~ 20
        if k <= 20:
            assert float(row["left"]) < float(row["right"])
        assert float(row["sup_deriv"]) >= float(row["min_deriv"]) > 0.0


def test_tail_levels_match_psi_jets(ps2):
    x = np.linspace(*ps2.interval, 64)
    assert ps2.tail_levels.shape == (ps2.Kmax,)
    for k in range(1, ps2.Kmax + 1):
        want = float(np.max(np.abs(_psi_jets(ps2, k, 1, x, 1)[1])))
        assert ps2.tail_levels[k - 1] == want


def test_tail_bound_matches_two_level_formula(ps2):
    x = np.linspace(*ps2.interval, 64)
    for K, t in ((2, 0.9), (12, 0.3), (20, 0.538), (ps2.Kmax, 0.75)):
        levels = [float(np.max(np.abs(_psi_jets(ps2, kk, 1, x, 1)[1]))) ** t
                  for kk in (K - 1, K)]
        ratio = 1.1 * levels[1] / levels[0]
        assert tail_bound(ps2, K, t) == levels[1] * ratio / (1.0 - ratio)


def _bisect_reference(fp, targets, lo, hi):
    """The plain inversion: 52 bisection steps, then 3 Newton steps."""
    a = np.full(targets.shape, lo)
    b = np.full(targets.shape, hi)
    for _ in range(52):
        mid = 0.5 * (a + b)
        high = fp.E(mid) > targets
        a = np.where(high, mid, a)
        b = np.where(high, b, mid)
    z = 0.5 * (a + b)
    for _ in range(3):
        z = np.clip(z - (fp.E(z) - targets) / fp.E(z, 1), lo, hi)
    return z


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_bracketed_newton_matches_bisection(ell):
    sys = build_system(solve_ell(ell))
    fp = sys.fp
    for lo, hi in ((0.0, sys.x_c), (sys.x_c, 1.0)):
        targets = np.linspace(float(fp.E(hi)), float(fp.E(lo)), 2001)
        z = _solve_E_decreasing(fp, targets, lo, hi)
        ref = _bisect_reference(fp, targets, lo, hi)
        assert np.all((z >= lo) & (z <= hi))
        assert float(np.max(np.abs(z - ref))) <= 2e-15
        assert float(np.max(np.abs(fp.E(z) - targets))) <= 2e-15
