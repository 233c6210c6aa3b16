import json
import os

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

import feigdim.fixedpoint
from feigdim.cheb import der01
from feigdim.errors import (
    CorruptFile,
    DomainError,
    NoConvergence,
    SchemaMismatch,
    UnsupportedCombinatorics,
)
from feigdim.fixedpoint import (
    BASIS,
    PERIOD_DOUBLING,
    SCHEMA,
    CombinatoricsType,
    cache_filename,
    cached_solve,
    continue_in_ell,
    evaluate_g,
    load_fixed_point,
    save_fixed_point,
    solve_fixed_point,
)

from conftest import solve_ell
from oracles import ALPHA_2, quadratic_cascade_alpha

# alpha values along the sweep, frozen from converged degree-40 solves
ALPHA_BY_ELL = {
    4: -1.6903029714,
    6: -1.4677424503,
    8: -1.3580172791,
}


def test_alpha_matches_reference(fp2):
    assert abs(fp2.alpha - ALPHA_2) < 1e-9


def test_residual_below_tolerance(fp2):
    assert fp2.residual < 1e-10


def test_alpha_matches_quadratic_cascade_oracle(fp2):
    oracle = quadratic_cascade_alpha()
    assert abs(fp2.alpha - oracle) < 1e-5


def test_normalization_g_at_zero(fp2):
    assert abs(evaluate_g(fp2, 0.0) - 1.0) < 1e-12


def test_functional_equation_on_grid(fp2):
    # alpha g(g(x)) = g(alpha x) away from the collocation grid, on the
    # largest symmetric domain where alpha x stays inside [-1, 1]
    x = np.linspace(0.0, 1.0 / abs(fp2.alpha), 113)
    gg = np.array([evaluate_g(fp2, float(evaluate_g(fp2, xi))) for xi in x])
    rhs = np.array([evaluate_g(fp2, fp2.alpha * xi) for xi in x])
    assert np.max(np.abs(fp2.alpha * gg - rhs)) < 1e-9


@pytest.mark.parametrize("ell", [2, 20])
def test_evaluate_g_near_zero_is_the_plain_chain_rule(ell):
    # |x|^ell is a plain power at every x: no exp/log detour near 0
    fp = solve_ell(ell)
    x = np.array([1e-4, -1e-4, 3.7e-5, -3.7e-5])
    u = np.abs(x) ** ell
    assert np.array_equal(evaluate_g(fp, x), fp.E(u))
    du = ell * np.abs(x) ** (ell - 1) * np.sign(x)
    assert np.array_equal(evaluate_g(fp, x, 1), fp.E(u, 1) * du)


@pytest.mark.parametrize("ell", [2, 20])
def test_jets_match_E_per_derivative(ell):
    fp = solve_ell(ell)
    u = np.linspace(0.0, 1.0, 1001)
    jets = fp.jets(u, 3)
    assert jets.shape == (4, 1001)
    grid, scalar = u[::10], []
    dcoeffs = fp.e_coeffs
    for j in range(4):
        # a scalar u runs the map's own lists, with chebval's bits
        scalar.append([fp.E(float(v), j) for v in grid])
        assert all(type(e) is np.float64 for e in scalar[j])
        assert scalar[j] == [chebval(2.0 * np.asarray(v) - 1.0, dcoeffs)
                             for v in grid]
        # E(u, j) is numpy's chebval of the j-th derivative series
        assert np.array_equal(fp.E(u, j), chebval(2.0 * u - 1.0, dcoeffs))
        tol = 1e-14 * max(1.0, float(np.sum(np.abs(dcoeffs))))
        assert np.all(np.abs(jets[j] - fp.E(u, j)) <= tol)
        assert np.array_equal(fp.jets(0.3, j), [fp.E(0.3, i) for i in range(j + 1)])
        dcoeffs = der01(dcoeffs)
    assert np.array_equal(fp.jets(u, 0), [fp.E(u)])
    for i, v in enumerate(grid):
        for order in range(4):
            assert np.array_equal(fp.jets(float(v), order),
                                  [row[i] for row in scalar[:order + 1]])
    with pytest.raises(DomainError):
        fp.jets(u, 4)


def test_continuation_in_ell():
    fp4 = continue_in_ell(solve_ell(2))
    assert abs(fp4.alpha - ALPHA_BY_ELL[4]) < 1e-8
    direct = solve_ell(4)
    assert abs(fp4.alpha - direct.alpha) < 1e-10


def test_continuation_doubles_the_degree_once_on_no_convergence(monkeypatch):
    # a 2 -> 100 chain takes this retry at ell 80; here Newton is made to
    # stall at degree 40 so the retry runs at ell 4
    real = feigdim.fixedpoint.solve_fixed_point
    degrees = []

    def stalls_at_40(combinatorics, ell, degree, *args, **kwargs):
        degrees.append(degree)
        if degree == 40:
            raise NoConvergence("stalled at degree 40", 1.0)
        return real(combinatorics, ell, degree, *args, **kwargs)

    monkeypatch.setattr(feigdim.fixedpoint, "solve_fixed_point", stalls_at_40)
    fp4 = continue_in_ell(solve_ell(2))
    assert degrees == [40, 80]
    assert fp4.ell == 4 and fp4.degree == 80
    assert len(fp4.e_coeffs) == 81
    assert abs(fp4.alpha - ALPHA_BY_ELL[4]) < 1e-8
    assert fp4.residual < 1e-10


def test_cached_solve_continues_past_a_degree_doubling(monkeypatch):
    # Newton stalls at degree 40 on ell 4 only, so continuation doubles the
    # degree there; every later ell is then one solve from the previous
    # map at the doubled degree, not a chain re-solved from ell 2
    real = feigdim.fixedpoint.solve_fixed_point
    calls = []

    def stalls_at_4_40(combinatorics, ell, degree, *args, **kwargs):
        calls.append((ell, degree))
        if (ell, degree) == (4, 40):
            raise NoConvergence("stalled at degree 40", 1.0)
        return real(combinatorics, ell, degree, *args, **kwargs)

    monkeypatch.setattr(feigdim.fixedpoint, "solve_fixed_point",
                        stalls_at_4_40)
    fp = solve_ell(2)
    fp, _, _ = cached_solve(4, 40, 1e-10, None, prev=fp)
    assert calls == [(4, 40), (4, 80)] and fp.degree == 80
    for ell in (6, 8):
        calls.clear()
        fp, path, hit = cached_solve(ell, 40, 1e-10, None, prev=fp)
        assert calls == [(ell, 80)]
        assert fp.ell == ell and fp.degree == 80 and not hit
        assert abs(fp.alpha - ALPHA_BY_ELL[ell]) < 1e-8


@pytest.mark.parametrize("ell", [4, 6, 8])
def test_alpha_along_sweep(ell):
    fp = solve_ell(ell)
    assert abs(fp.alpha - ALPHA_BY_ELL[ell]) < 1e-8
    assert fp.residual < 1e-10


def test_odd_ell_rejected():
    with pytest.raises(DomainError):
        solve_fixed_point(PERIOD_DOUBLING, 3)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-10])
def test_tol_outside_0_to_inf_rejected(tol):
    # tol = inf would accept the first Newton step (residual 6.4e-5)
    with pytest.raises(DomainError):
        solve_fixed_point(PERIOD_DOUBLING, 2, tol=tol)


@pytest.mark.parametrize("ell", [2.0, 4.0, True])
def test_non_integer_ell_rejected(ell):
    # a float ell would be cached as a record load_fixed_point refuses
    with pytest.raises(DomainError):
        solve_fixed_point(PERIOD_DOUBLING, ell)


def test_numpy_integer_ell_round_trips_through_the_cache(tmp_path):
    fp = solve_fixed_point(PERIOD_DOUBLING, np.int64(2))
    assert type(fp.ell) is int
    assert load_fixed_point(save_fixed_point(fp, str(tmp_path))).ell == 2


def test_unsupported_combinatorics_rejected():
    with pytest.raises(UnsupportedCombinatorics):
        solve_fixed_point(CombinatoricsType(3, "reversing"), 2)


def test_cache_filename_convention():
    assert cache_filename((2, 8, 24)) == "fp_p2_l8_d24.json"


def test_cache_round_trip(tmp_path, fp2):
    path = save_fixed_point(fp2, str(tmp_path))
    assert path.endswith("fp_p2_l2_d40.json")
    back = load_fixed_point(path)
    assert back.ell == fp2.ell
    assert back.alpha == fp2.alpha
    assert np.array_equal(back.e_coeffs, fp2.e_coeffs)
    with open(path) as fh:
        record = json.load(fh)
    assert record["schema"] == SCHEMA == "feigdim-fp-1"
    assert record["basis"] == BASIS


def test_cache_save_is_canonical(tmp_path, fp2):
    first = save_fixed_point(fp2, str(tmp_path / "a.json"))
    back = load_fixed_point(first)
    second = save_fixed_point(back, str(tmp_path / "b.json"))
    assert open(first, "rb").read() == open(second, "rb").read()


def test_corrupt_cache_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    with pytest.raises(CorruptFile):
        load_fixed_point(str(path))


def test_wrong_schema_rejected(tmp_path, fp2):
    path = save_fixed_point(fp2, str(tmp_path))
    record = json.load(open(path))
    record["schema"] = "feigdim-fp-0"
    json.dump(record, open(path, "w"))
    with pytest.raises(SchemaMismatch):
        load_fixed_point(path)


def test_unsupported_combinatorics_record_rejected(tmp_path, fp2):
    path = save_fixed_point(fp2, str(tmp_path))
    record = json.load(open(path))
    record["p"] = 3
    json.dump(record, open(path, "w"))
    with pytest.raises(UnsupportedCombinatorics):
        load_fixed_point(path)
    with pytest.raises(UnsupportedCombinatorics):
        load_fixed_point(path, revalidate=False)


def test_tampered_coefficients_fail_revalidation(tmp_path, fp2):
    path = save_fixed_point(fp2, str(tmp_path))
    record = json.load(open(path))
    record["coeffs"][3] += 1e-4
    json.dump(record, open(path, "w"))
    with pytest.raises(CorruptFile):
        load_fixed_point(path)
    # revalidate=False must accept the record as stored
    fp = load_fixed_point(path, revalidate=False)
    assert fp.ell == 2


@pytest.mark.parametrize("field, value", [
    ("ell", 2.5), ("ell", 2.0), ("ell", "2"), ("degree", 40.5),
    ("iterations", 3.7), ("iterations", True),
    ("tol", np.inf), ("tol", 0.0), ("tol", -1e-10)])
def test_malformed_record_field_rejected(tmp_path, fp2, field, value):
    # int() would truncate 2.5 to ell 2 and 40.5 to degree 40, and a tol of
    # inf would revalidate any coefficients
    path = save_fixed_point(fp2, str(tmp_path))
    record = json.load(open(path))
    record[field] = value
    json.dump(record, open(path, "w"))
    for revalidate in (True, False):
        with pytest.raises(CorruptFile):
            load_fixed_point(path, revalidate=revalidate)


def test_failed_save_keeps_previous_record(tmp_path, fp2, monkeypatch):
    path = save_fixed_point(fp2, str(tmp_path))
    with open(path, "rb") as fh:
        before = fh.read()

    def torn_dump(record, fh, **kwargs):
        fh.write('{"schema": "feigdim-fp-1", "coe')
        raise RuntimeError("interrupted mid-save")

    monkeypatch.setattr(feigdim.fixedpoint.json, "dump", torn_dump)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_fixed_point(fp2, str(tmp_path))
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == [os.path.basename(path)]
