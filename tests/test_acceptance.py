"""End-to-end acceptance checks for the whole toolkit.

Each test covers one numbered acceptance criterion and emits a single
"[criterion NN] PASS/FAIL" line with the measured quantities, bypassing
capture so the verdicts show up in any run. Tests are ordered so the
heavy solves happen once, inside the criterion that times them; later
criteria reuse the cached objects.
"""
import time

import numpy as np
import pytest

from feigdim.dimension import (
    _bowen_root,
    build_pressure_model,
    conformality_residual,
    hausdorff_dimension,
    moran_oracle,
)
from feigdim.fixedpoint import PERIOD_DOUBLING, solve_fixed_point
from feigdim.poincare import claim2_scan
from feigdim.presentation import build_presentation, cylinder_of_word
from feigdim.unimodal import (
    build_system,
    critical_orbit,
    eval_G,
    second_derivative_identity,
)

from conftest import ToyIFS
from oracles import quadratic_cascade_alpha

ELLS = list(range(2, 21, 2))

_FPS = {}
_SYSTEMS = {}
_IFS = {}
_HD = {}


def _fp(ell):
    if ell not in _FPS:
        _FPS[ell] = solve_fixed_point(PERIOD_DOUBLING, ell, degree=40)
    return _FPS[ell]


def _system(ell):
    if ell not in _SYSTEMS:
        _SYSTEMS[ell] = build_system(_fp(ell))
    return _SYSTEMS[ell]


def _ifs(ell):
    if ell not in _IFS:
        _IFS[ell] = build_presentation(_system(ell))
    return _IFS[ell]


def _hd(ell):
    if ell not in _HD:
        _HD[ell] = hausdorff_dimension(_ifs(ell), with_bracket=False).hd
    return _HD[ell]


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)


def test_criterion_01_quadratic_dimension_within_budget(capsys):
    t0 = time.perf_counter()
    fp = solve_fixed_point(PERIOD_DOUBLING, 2, degree=40)
    res = hausdorff_dimension(build_system(fp))
    wall = time.perf_counter() - t0
    ok = abs(res.hd - 0.538) < 3e-3 and wall < 60.0
    _report(capsys, 1, ok,
            f"hd={res.hd:.9f} (target 0.538 +/- 0.003), wall={wall:.1f}s "
            f"(budget 60s)")
    assert ok


def test_criterion_02_solver_accuracy_across_the_family(capsys):
    t0 = time.perf_counter()
    for ell in ELLS:
        _FPS[ell] = solve_fixed_point(PERIOD_DOUBLING, ell, degree=40)
    wall = time.perf_counter() - t0
    worst = max(_FPS[ell].residual for ell in ELLS)
    oracle = quadratic_cascade_alpha()
    diff = abs(_FPS[2].alpha - oracle)
    ok = worst < 1e-10 and diff < 1e-5 and wall < 300.0
    _report(capsys, 2, ok,
            f"max residual={worst:.2e} over ell=2..20, alpha(2) vs "
            f"doubling-cascade oracle diff={diff:.2e}, solves={wall:.1f}s "
            f"(budget 300s)")
    assert ok


def test_criterion_03_microscope_reproduces_the_orbit(capsys):
    worst = 0.0
    for ell in (2, 8, 16):
        sysl = _system(ell)
        orbit = critical_orbit(sysl, 64)
        j = np.arange(1, 33)
        defect = np.abs(eval_G(sysl, orbit[j]) - orbit[2 * j])
        worst = max(worst, float(defect.max()))
    ok = worst < 1e-8
    _report(capsys, 3, ok,
            f"max |G(c_j) - c_2j| = {worst:.2e} for j <= 32 at "
            f"ell in (2, 8, 16) (tol 1e-8)")
    assert ok


def test_criterion_04_cylinder_endpoints_and_disjointness(capsys):
    ps = _ifs(2)
    worst = 0.0
    for k in range(1, 11):
        left, right = cylinder_of_word(ps, [k])
        want = sorted((ps.orbit[2 ** k], ps.orbit[3 * 2 ** k]))
        worst = max(worst, abs(left - want[0]), abs(right - want[1]))
    cyl = ps.cylinders
    order = np.argsort(cyl[:, 0])
    min_gap = float(np.min(cyl[order[1:], 0] - cyl[order[:-1], 1]))
    ok = worst < 1e-8 and min_gap > -1e-12
    _report(capsys, 4, ok,
            f"max endpoint defect={worst:.2e} for k <= 10 (tol 1e-8), "
            f"min inter-cylinder gap={min_gap:.2e}")
    assert ok


def test_criterion_05_microscope_multiplier_law(capsys):
    worst = 0.0
    for ell in ELLS:
        sysl = _system(ell)
        got = abs(float(eval_G(sysl, np.array([sysl.x_c]), 1)[0]))
        worst = max(worst, abs(got - sysl.tau ** (-1.0 / ell)))
    ok = worst < 1e-8
    _report(capsys, 5, ok,
            f"max ||G'(x_c)| - tau^(-1/ell)| = {worst:.2e} over "
            f"ell=2..20 (tol 1e-8)")
    assert ok


def test_criterion_06_quadratic_coefficient_identity(capsys):
    # The multiplier entering |2b| = N lambda (1 - lambda) is that of the
    # doubled return map at the critical point (sys.taylor[0]); the
    # one-step scaling tau^(-1/ell) misses the identity by two orders.
    worst_rel = 0.0
    ratios = []
    for ell in ELLS:
        sysl = _system(ell)
        worst_rel = max(worst_rel, second_derivative_identity(sysl))
        lam = sysl.taylor[0]
        ratios.append(abs(sysl.taylor[1]) / abs(lam - 1.0))
    bounded = all(np.isfinite(r) for r in ratios) and max(ratios) < 0.5
    ok = worst_rel < 1e-5 and bounded
    _report(capsys, 6, ok,
            f"max relative identity defect={worst_rel:.2e} (tol 1e-5), "
            f"dominance ratios in [{min(ratios):.4f}, {max(ratios):.4f}]")
    assert ok


@pytest.mark.filterwarnings("ignore:critical orbit clamped")
def test_criterion_07_independent_moran_bracket(capsys):
    contained = True
    width_2 = None
    for ell in ELLS:
        hd = _hd(ell)
        br = moran_oracle(_ifs(ell), n=4)
        contained = contained and br.t_lo <= hd <= br.t_hi
        if ell == 2:
            width_2 = br.width
    ok = contained and width_2 < 0.01
    _report(capsys, 7, ok,
            f"depth-4 bracket contains the eigen-root at every ell "
            f"({contained}), width at ell=2 = {width_2:.2e} (tol 0.01)")
    assert ok


def test_criterion_08_truncation_and_collocation_stability(capsys):
    ps = build_presentation(_system(2))
    hd_k = [hausdorff_dimension(ps, K=K, with_bracket=False).hd
            for K in (40, 50)]
    dk = abs(hd_k[0] - hd_k[1])
    hd_nc = [hausdorff_dimension(ps, K=40, Nc=Nc, with_bracket=False).hd
             for Nc in (24, 48)]
    dnc = abs(hd_nc[0] - hd_nc[1])
    ok = dk < 1e-4 and dnc < 1e-6
    _report(capsys, 8, ok,
            f"|hd(K=40) - hd(K=50)| = {dk:.2e} (tol 1e-4), "
            f"|hd(Nc=24) - hd(Nc=48)| = {dnc:.2e} (tol 1e-6)")
    assert ok


@pytest.mark.filterwarnings("ignore:critical orbit clamped")
def test_criterion_09_trends_across_the_family(capsys):
    hds = [_hd(ell) for ell in ELLS]
    taus = [_system(ell).tau for ell in ELLS]
    hd_up = bool(np.all(np.diff(hds) > 0.0))
    dtau = np.diff(taus)
    dtau_down = bool(np.all(np.diff(dtau) < 0.0))
    crossing = next((ell for ell, hd in zip(ELLS, hds) if hd > 2.0 / 3.0),
                    None)
    ok = hd_up and dtau_down and crossing == 6
    _report(capsys, 9, ok,
            f"hd increasing ({hd_up}), tau increments decreasing "
            f"({dtau_down}), hd first exceeds 2/3 at ell={crossing}")
    assert ok


def test_criterion_10_affine_model_constant(capsys):
    sigmas = (1.0, 1.001, 1.01, 1.1)
    rows = claim2_scan(1.5, 2.0, sigmas, i_max=100_000)
    rows_2x = claim2_scan(1.5, 2.0, sigmas, i_max=200_000)
    Ms = [row["M"] for row in rows]
    finite = all(np.isfinite(m) and m > 0.0 for m in Ms)
    uniform = max(Ms) < 10.0
    drift = max(abs(r2["M"] - r1["M"]) / r1["M"]
                for r1, r2 in zip(rows, rows_2x))
    exact = (100_000.0 / 100_002.0) ** 1.5
    closed = abs(rows[0]["M"] - exact)
    ok = finite and uniform and drift < 0.05 and closed < 1e-12
    _report(capsys, 10, ok,
            f"M in [{min(Ms):.4f}, {max(Ms):.4f}] over sigma grid, "
            f"horizon-doubling drift={drift:.2e} (tol 5e-2), sigma=1 "
            f"closed-form defect={closed:.2e}")
    assert ok


def test_criterion_11_conformal_consistency(capsys):
    pm = build_pressure_model(_ifs(2), K=40)
    t_star = _bowen_root(pm, 1e-10)
    resid = conformality_residual(pm, t_star, depth=3)
    ok = resid < 1e-6
    _report(capsys, 11, ok,
            f"depth-3 conformality residual={resid:.2e} at "
            f"t={t_star:.9f} (tol 1e-6)")
    assert ok


def test_criterion_12_exactly_solvable_harness(capsys):
    res = hausdorff_dimension(ToyIFS(), root_tol=1e-12)
    target = np.log(2.0) / np.log(3.0)
    diff = abs(res.hd - target)
    ok = diff < 1e-10
    _report(capsys, 12, ok,
            f"ternary harness hd={res.hd:.12f}, |hd - log2/log3| = "
            f"{diff:.2e} (tol 1e-10)")
    assert ok
