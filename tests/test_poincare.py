import csv

import numpy as np
import pytest

from feigdim.errors import (
    BranchCutCrossed,
    DomainError,
    LambdaDegenerate,
    RatioNotContracting,
)
from feigdim.poincare import (
    LinearHarness,
    alpha_decay_check,
    claim2_csv,
    claim2_scan,
    dominance_table,
    poincare_tail,
    quadratic_normalization,
    to_parabolic_coords,
)
from feigdim.unimodal import build_system

from conftest import solve_ell

LAM_2 = 0.15962844038
A_2 = 0.00254867864


def test_quadratic_normalization_kills_the_square_term():
    B, resid = quadratic_normalization(0.5, 0.1)
    assert abs(B - (-0.4)) < 1e-15
    assert resid < 1e-15
    B, resid = quadratic_normalization(LAM_2, -0.0149727906, A_2)
    assert resid < 1e-15
    assert B > 0.0


def test_quadratic_normalization_degenerate_multiplier():
    with pytest.raises(LambdaDegenerate):
        quadratic_normalization(1.0, 0.1)
    with pytest.raises(LambdaDegenerate):
        quadratic_normalization(1.0 + 1e-13, 0.1)
    with pytest.raises(LambdaDegenerate):
        quadratic_normalization(0.0, 0.1)


def test_parabolic_coords_basics():
    w = 30.0 + 4.0j
    g = to_parabolic_coords(LAM_2, A_2, w)
    assert isinstance(g, complex)
    # real axis maps into the real axis, conjugation commutes
    g_conj = to_parabolic_coords(LAM_2, A_2, np.conj(w))
    assert abs(np.conj(g) - g_conj) < 1e-12
    g_real = to_parabolic_coords(LAM_2, A_2, 40.0)
    assert abs(g_real.imag) < 1e-12
    # half-plane step: g(w) tracks sigma w + 1
    sigma = LAM_2 ** -2.0
    assert abs(g - sigma * w - 1.0) < 1e-2 * abs(g)


def test_parabolic_coords_guards():
    with pytest.raises(DomainError):
        to_parabolic_coords(LAM_2, 0.0, 30.0)
    with pytest.raises(DomainError):
        to_parabolic_coords(LAM_2, -1.0, 30.0)
    with pytest.raises(DomainError):
        to_parabolic_coords(LAM_2, A_2, 10.0 + 1.0j)  # Re w below default R0
    with pytest.raises(BranchCutCrossed):
        to_parabolic_coords(5.0, 1.0, 1.1 + 3.0j, R0=1.0)


def test_alpha_decay_bound():
    v = alpha_decay_check(LAM_2, A_2)
    assert np.isfinite(v) and v > 0.0
    # refining the grid does not move the sup
    v_dense = alpha_decay_check(LAM_2, A_2, nre=80, nim=17)
    assert abs(v_dense - v) <= 0.05 * v
    # pushing the half-plane out only shrinks the alpha term
    assert alpha_decay_check(LAM_2, A_2, R0=50.0) < v


def test_dominance_table(sys2):
    sys4 = build_system(solve_ell(4))
    diag = dominance_table([sys2, sys4])
    assert [row["ell"] for row in diag.rows] == [2, 4]
    row2 = diag.rows[0]
    assert abs(row2["lambda"] - LAM_2) < 1e-9
    assert abs(row2["dominance_ratio"] -
               abs(row2["b"]) / abs(row2["lambda"] - 1.0)) < 1e-15
    assert abs(row2["dominance_ratio"] - 0.0178169) < 1e-6
    assert abs(row2["sigma"] - row2["lambda"] ** -2.0) < 1e-12
    assert row2["d"] > 0.0
    assert diag.rows[1]["dominance_ratio"] > row2["dominance_ratio"]


def test_dominance_table_validation(sys2):
    sys4 = build_system(solve_ell(4))
    with pytest.raises(DomainError):
        dominance_table([sys2])
    with pytest.raises(DomainError):
        dominance_table([sys4, sys2])
    with pytest.raises(DomainError):
        dominance_table([sys2, sys2])


def test_dominance_csv(sys2, tmp_path):
    sys4 = build_system(solve_ell(4))
    diag = dominance_table([sys2, sys4])
    path = str(tmp_path / "dominance.csv")
    diag.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert abs(float(rows[0]["lambda"]) - LAM_2) < 1e-9
    assert list(rows[0].keys()) == ["ell", "lambda", "b", "a", "N",
                                    "dominance_ratio"]


def test_claim2_sigma_one_closed_form():
    row = claim2_scan(1.5, 2.0, [1.0], i_max=1000)[0]
    assert abs(row["M"] - (1000.0 / 1002.0) ** 1.5) < 1e-14
    assert row["sigma"] == 1.0 and row["i_max"] == 1000


def test_claim2_scan_behaviour():
    sigmas = [1.001, 1.01, 1.1]
    rows = claim2_scan(1.5, 2.0, sigmas)
    assert [r["sigma"] for r in rows] == sigmas
    Ms = [r["M"] for r in rows]
    assert all(np.isfinite(m) and m > 0.0 for m in Ms)
    # contraction further from the parabolic point only lowers the sup
    assert Ms[0] > Ms[1] > Ms[2]
    # the sup saturates at moderate i, so doubling i_max changes nothing
    rows_2x = claim2_scan(1.5, 2.0, sigmas, i_max=200_000)
    for r1, r2 in zip(rows, rows_2x):
        assert abs(r2["M"] - r1["M"]) <= 0.05 * r1["M"]


def test_claim2_validation():
    with pytest.raises(DomainError):
        claim2_scan(1.0, 2.0, [1.1])
    with pytest.raises(DomainError):
        claim2_scan(1.5, 1.0, [1.1])
    with pytest.raises(DomainError):
        claim2_scan(1.5, 2.0, [0.9])
    with pytest.raises(DomainError):
        claim2_scan(1.5, 2.0, [1.1], i_max=2_000_000)


def test_claim2_csv_round_trip(tmp_path):
    rows = claim2_scan(1.5, 2.0, [1.0, 1.01])
    path = str(tmp_path / "claim2.csv")
    claim2_csv(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    assert abs(float(back[1]["M"]) - rows[1]["M"]) < 1e-10
    assert int(back[0]["i_max"]) == 100_000


def test_poincare_tail_linear_harness():
    h = LinearHarness(0.5)
    assert poincare_tail(h, 1.0, 1.0, 2.0, i_max=10) == pytest.approx(2.0, abs=1e-15)
    assert poincare_tail(h, 2.0, 1.0, 2.0, i_max=10) == pytest.approx(4.0 / 3.0, abs=1e-15)
    # the closure is exact, so the horizon does not matter
    assert poincare_tail(h, 1.0, 1.0, 2.0, i_max=10_000) == pytest.approx(2.0)


def test_poincare_tail_visit_window():
    h = LinearHarness(0.5)
    # radius 0.25 drops the first two visits (at 1 and 0.5)
    partial = poincare_tail(h, 1.0, 1.0, 0.25, i_max=40)
    assert partial == pytest.approx(0.5, abs=1e-12)
    assert partial < poincare_tail(h, 1.0, 1.0, 2.0, i_max=40)


def test_poincare_tail_guards():
    h = LinearHarness(0.5)
    with pytest.raises(DomainError):
        poincare_tail(h, 0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        poincare_tail(h, 1.0, 1e-15, 2.0)
    with pytest.raises(RatioNotContracting):
        poincare_tail(LinearHarness(1.5), 1.0, 1.0, 2.0, i_max=10)


def test_poincare_tail_on_the_return_map(sys2):
    t = 0.538
    total = poincare_tail(sys2, t, 0.75, 0.05, i_max=300)
    assert np.isfinite(total) and total > 0.0
    # growing the visit window can only add terms
    assert poincare_tail(sys2, t, 0.75, 0.02, i_max=300) <= total
