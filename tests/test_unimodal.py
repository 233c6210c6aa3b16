import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from feigdim.cheb import eval01
from feigdim.errors import DomainError, OrbitEscaped
from feigdim.unimodal import (
    DEFAULT_ORBIT_MAX,
    UnimodalSystem,
    build_system,
    conjugacy_residual,
    critical_orbit,
    eval_G,
    eval_H,
    jet_compose,
    second_derivative_identity,
)

from conftest import solve_ell
from oracles import fd_derivative

X_C_2 = 0.6928352170734087
TAU_2 = 6.2645478312135770


def test_derived_constants(sys2, fp2):
    assert abs(sys2.tau - abs(fp2.alpha) ** fp2.ell) < 1e-12
    assert abs(sys2.tau - TAU_2) < 1e-10
    assert abs(sys2.x_c - X_C_2) < 1e-12
    # period doubling reverses orientation at x_c
    assert float(eval_G(sys2, sys2.x_c, 1)) < 0.0


def test_critical_point_fixed_by_G(sys2):
    assert abs(float(eval_G(sys2, sys2.x_c)) - sys2.x_c) < 1e-13


def test_multiplier_law(sys2):
    got = abs(float(eval_G(sys2, np.array([sys2.x_c]), 1)[0]))
    assert abs(got - sys2.tau ** (-1.0 / sys2.ell)) < 1e-12


def test_conjugacy_residual_small(sys2):
    assert conjugacy_residual(sys2) < 1e-9


def test_orbit_doubling_identity(sys2):
    orbit = critical_orbit(sys2, 64)
    j = np.arange(1, 33)
    defect = np.abs(eval_G(sys2, orbit[j]) - orbit[2 * j])
    assert float(defect.max()) < 1e-8


def test_orbit_stays_in_unit_interval(sys2):
    orbit = critical_orbit(sys2, 512)
    assert np.all((orbit >= 0.0) & (orbit <= 1.0))


def test_orbit_budget_enforced(sys2):
    for n in (10_000, -3, 2.5, float("nan")):
        with pytest.raises(DomainError):
            critical_orbit(sys2, n)
    assert critical_orbit(sys2, 0).tolist() == [sys2.x_c]


def _drifting_system(delta):
    """Stand-in map with ell = 2 and E = sqrt(1 + delta), so H = 1 + delta
    everywhere: every orbit step lands delta above 1. The orbit reads H
    only, so the stand-in has no G series."""
    e = np.sqrt(1.0 + delta)
    fp = SimpleNamespace(ell=2, E=lambda x, deriv=0: np.full_like(x, e))
    return UnimodalSystem(fp, tau=1.0, x_c=0.5, taylor=(0.0, 0.0, 0.0),
                          nonsymmetry=0.0, g_tables=())


def test_deep_orbit_clamps_with_warning():
    with pytest.warns(UserWarning, match="critical orbit clamped") as record:
        orbit = critical_orbit(_drifting_system(1e-13), 1024)
    assert len(record) == 1
    drift = float(str(record[0].message).rsplit(" ", 1)[1])
    assert drift == pytest.approx(1e-13, rel=1e-2)
    assert np.all((orbit >= 0.0) & (orbit <= 1.0))


def test_orbit_drift_beyond_slack_escapes():
    with pytest.raises(OrbitEscaped):
        critical_orbit(_drifting_system(1e-11), 1024)


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_deep_orbit_stays_in_unit_interval(ell):
    # Whether roundoff drifts the real orbit past 1 is not asserted either
    # way; if it does, the only allowed outcome is the clamp warning.
    sys = build_system(solve_ell(ell))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        orbit = critical_orbit(sys, 1024)
    assert np.all((orbit >= 0.0) & (orbit <= 1.0))
    for w in caught:
        assert issubclass(w.category, UserWarning)
        assert "critical orbit clamped" in str(w.message)


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_critical_orbit_matches_eval_H_loop(ell):
    sys = build_system(solve_ell(ell))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orbit = critical_orbit(sys, DEFAULT_ORBIT_MAX)
    want = np.empty(DEFAULT_ORBIT_MAX + 1)
    want[0] = sys.x_c
    for j in range(DEFAULT_ORBIT_MAX):
        want[j + 1] = min(max(float(eval_H(sys, want[j])), 0.0), 1.0)
    assert np.array_equal(orbit, want)


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_critical_orbit_matches_chebval_loop(ell):
    # a scalar eval_H runs the map's own coefficient lists, as
    # critical_orbit does; this reference steps with numpy's chebval itself
    sys = build_system(solve_ell(ell))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orbit = critical_orbit(sys, DEFAULT_ORBIT_MAX)
    coeffs = sys.fp.e_coeffs
    want = np.empty(DEFAULT_ORBIT_MAX + 1)
    want[0] = sys.x_c
    for j in range(DEFAULT_ORBIT_MAX):
        e = chebval(2.0 * np.asarray(want[j]) - 1.0, coeffs)
        want[j + 1] = min(max(float(e ** ell), 0.0), 1.0)
    assert np.array_equal(orbit, want)


def test_eval_H_matches_finite_differences(sys2):
    f = lambda x: float(eval_H(sys2, x))
    for x0 in (0.3, 0.55, 0.82):
        d1 = float(eval_H(sys2, x0, 1))
        d2 = float(eval_H(sys2, x0, 2))
        assert abs(d1 - fd_derivative(f, x0, 1, 1e-6)) < 1e-7 * max(1, abs(d1))
        assert abs(d2 - fd_derivative(f, x0, 2, 1e-5)) < 1e-4 * max(1, abs(d2))


def test_eval_G_domain_guard(sys2):
    # G's domain is [0, 1], where its series is read
    assert np.isfinite(float(eval_G(sys2, 1.0, 3)))
    with pytest.raises(DomainError):
        eval_G(sys2, 1.0 + 1e-9)
    with pytest.raises(DomainError):
        eval_G(sys2, sys2.tau + 1.0)


@pytest.mark.parametrize("evaluate", [eval_G, eval_H])
def test_nan_is_outside_every_domain(sys2, evaluate):
    for x in (float("nan"), np.array([0.5, float("nan")])):
        with pytest.raises(DomainError):
            evaluate(sys2, x)


@pytest.mark.parametrize("ell", [*range(2, 21, 2), 64])
def test_g_series_matches_E_on_the_branch_range(ell):
    # e(w) = E(w/tau) and e^(j)(w) = E^(j)(w/tau) / tau^j on G's domain,
    # for every chopped table; ell 64 is continued from 2 at degree 40.
    # Observed: at most 6.7e-16 on values and 6.3e-15 of the sup on
    # derivatives. Bounds: 1.5e-15 and 2e-14 of the sup.
    sys = build_system(solve_ell(ell))
    w = np.linspace(0.0, 1.0, 10_001)
    want = [sys.fp.E(w / sys.tau, j) / sys.tau ** j for j in range(4)]
    for q, table in enumerate(sys.g_tables):
        assert table.shape == (table.shape[0], q + 1)
        assert table.shape[0] <= 25 < len(sys.fp.e_coeffs)
        got = eval01(table, w)
        for j in range(q + 1):
            bound = 1.5e-15 if j == 0 else 2e-14
            scale = np.max(np.abs(want[j]))
            assert np.max(np.abs(got[j] - want[j])) <= bound * scale


def test_jet_compose_against_hand_expansion():
    # f(h) = 2h + 3h^2 - h^3, g(h) = 0.5h - h^2 + 4h^3 around a common
    # fixed point; coefficients of f o g by direct expansion
    got = jet_compose((2.0, 3.0, -1.0), (0.5, -1.0, 4.0))
    assert got[0] == 2.0 * 0.5
    assert got[1] == 2.0 * (-1.0) + 3.0 * 0.25
    assert got[2] == 2.0 * 4.0 + 2 * 3.0 * 0.5 * (-1.0) + (-1.0) * 0.125


def test_taylor_data_matches_finite_differences(sys2):
    lam, b, a = sys2.taylor

    def g_eps(h):
        y = float(eval_G(sys2, sys2.x_c + h))
        return float(eval_G(sys2, y)) - sys2.x_c

    h = 1e-3
    assert abs(lam - fd_derivative(g_eps, 0.0, 1, h)) < 1e-6
    assert abs(2.0 * b - fd_derivative(g_eps, 0.0, 2, h)) < 1e-5
    assert abs(-6.0 * a - fd_derivative(g_eps, 0.0, 3, h)) < 1e-4


def test_taylor_reference_values(sys2):
    lam, b, a = sys2.taylor
    assert abs(lam - 0.159628440383) < 1e-9
    assert abs(b - (-0.014972790572)) < 1e-9
    assert abs(a - 0.002548678642) < 1e-9
    assert abs(sys2.nonsymmetry - 0.223229265) < 1e-6


def test_second_derivative_identity(sys2):
    assert second_derivative_identity(sys2) < 1e-10


def test_taylor_at_ell_4():
    sys4 = build_system(solve_ell(4))
    lam, b, a = sys4.taylor
    assert abs(lam - 0.350002) < 1e-5
    assert abs(b - (-0.0558579)) < 1e-6
    assert abs(a - 0.0312701) < 1e-6
    assert second_derivative_identity(sys4) < 1e-10
