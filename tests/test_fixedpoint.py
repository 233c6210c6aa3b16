import json
import os

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

import feigdim.cheb
import feigdim.fixedpoint
from feigdim.cheb import cheb_points, der01, eval01, vander01
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
    _jacobian,
    _residual,
    _validation_defect,
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


def _per_evaluation_residual(coeffs, alpha, ell, nodes):
    # one eval01 call per quantity: the reference for the joined calls
    tau = alpha ** ell
    u = nodes / tau
    Eu = eval01(coeffs, u)
    F = alpha * eval01(coeffs, Eu ** ell) - eval01(coeffs, nodes)
    return np.append(F, eval01(coeffs, 0.0) - 1.0)


def _per_evaluation_jacobian(coeffs, alpha, ell, nodes):
    degree = len(coeffs) - 1
    tau = alpha ** ell
    u = nodes / tau
    dcoeffs = der01(coeffs)
    Eu = eval01(coeffs, u)
    v = Eu ** ell
    dE_u = eval01(dcoeffs, u)
    dE_v = eval01(dcoeffs, v)
    Phi_u = vander01(u, degree)
    Phi_v = vander01(v, degree)
    Phi_n = vander01(nodes, degree)
    w = dE_v * ell * Eu ** (ell - 1)
    Jc = alpha * (Phi_v + w[:, None] * Phi_u) - Phi_n
    du_da = -nodes * tau ** -2 * ell * alpha ** (ell - 1)
    Ja = eval01(coeffs, v) + alpha * w * dE_u * du_da
    norm_row = np.append(vander01(np.array([0.0]), degree)[0], 0.0)
    return np.vstack([np.hstack([Jc, Ja[:, None]]), norm_row])


def _per_evaluation_defect(coeffs, alpha, ell):
    x = np.linspace(0.0, 1.0 / abs(alpha), 512)
    gx = eval01(coeffs, x ** ell)
    ggx = eval01(coeffs, np.abs(gx) ** ell)
    gax = eval01(coeffs, np.abs(alpha * x) ** ell)
    return float(np.max(np.abs(alpha * ggx - gax)))


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["converged", "perturbed"])
@pytest.mark.parametrize("ell", [2, 8, 20])
def test_joined_evaluations_match_per_evaluation_formulas(ell, perturbed):
    # joining points in one chebval call gives every point its own bits,
    # so the residual, the Jacobian and the defect do not move
    fp = solve_ell(ell)
    coeffs, alpha = fp.e_coeffs.copy(), fp.alpha
    if perturbed:
        rng = np.random.default_rng(ell)
        coeffs += 1e-3 * rng.standard_normal(len(coeffs)) \
            / (1.0 + np.arange(len(coeffs))) ** 2
        alpha *= 1.01
    nodes = cheb_points(0.0, 1.0, len(coeffs))
    F, values = _residual(coeffs, alpha, ell, nodes)
    assert np.array_equal(F, _per_evaluation_residual(coeffs, alpha, ell,
                                                      nodes))
    J = _jacobian(coeffs, alpha, ell, nodes, values,
                  vander01(nodes, fp.degree),
                  np.append(vander01(np.array([0.0]), fp.degree)[0], 0.0))
    assert np.array_equal(J, _per_evaluation_jacobian(coeffs, alpha, ell,
                                                      nodes))
    assert _validation_defect(coeffs, alpha, ell) == \
        _per_evaluation_defect(coeffs, alpha, ell)


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_every_newton_iterate_matches_per_evaluation_formulas(ell,
                                                              monkeypatch):
    # along a real solve (from the seed at ell 2, else one continuation
    # step), every residual and every Jacobian, built from the rows the
    # solver makes once, equals the per-evaluation reference
    prev = solve_ell(ell - 2) if ell > 2 else None
    real_residual = feigdim.fixedpoint._residual
    real_jacobian = feigdim.fixedpoint._jacobian
    checked = {"residual": 0, "jacobian": 0}

    def residual(coeffs, alpha, ell, nodes):
        F, values = real_residual(coeffs, alpha, ell, nodes)
        assert np.array_equal(F, _per_evaluation_residual(coeffs, alpha, ell,
                                                          nodes))
        checked["residual"] += 1
        return F, values

    def jacobian(coeffs, alpha, ell, nodes, *args):
        J = real_jacobian(coeffs, alpha, ell, nodes, *args)
        assert np.array_equal(J, _per_evaluation_jacobian(coeffs, alpha, ell,
                                                          nodes))
        checked["jacobian"] += 1
        return J

    monkeypatch.setattr(feigdim.fixedpoint, "_residual", residual)
    monkeypatch.setattr(feigdim.fixedpoint, "_jacobian", jacobian)
    fp = solve_fixed_point(PERIOD_DOUBLING, 2) if prev is None \
        else continue_in_ell(prev)
    assert checked["jacobian"] == fp.solver_meta["iterations"]
    assert checked["residual"] > checked["jacobian"]
    assert np.array_equal(fp.e_coeffs, solve_ell(ell).e_coeffs)


def test_from_scratch_ell_20_solve_eval01_traffic(monkeypatch):
    # ten solves (ell 2 and nine continuation steps), 47 Newton iterations:
    # two E calls per residual and one E' call per Jacobian read 201 times
    # at 1 BLAS thread, against 476 with one call per quantity
    calls = {"eval01": 0, "chebvander": 0}
    real_eval01 = feigdim.cheb.eval01
    real_chebvander = feigdim.cheb._cheb.chebvander

    def eval01_counted(*args):
        calls["eval01"] += 1
        return real_eval01(*args)

    def chebvander_counted(*args):
        calls["chebvander"] += 1
        return real_chebvander(*args)

    monkeypatch.setattr(feigdim.cheb, "eval01", eval01_counted)
    monkeypatch.setattr(feigdim.cheb._cheb, "chebvander", chebvander_counted)
    fp = solve_fixed_point(PERIOD_DOUBLING, 20)
    assert np.array_equal(fp.e_coeffs, solve_ell(20).e_coeffs)
    assert calls["eval01"] <= 221
    assert calls["chebvander"] <= 68


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


@pytest.mark.parametrize("degree", [40.0, 12.5, np.nan, True, "40",
                                    np.int64(8)])
def test_bad_degree_rejected(degree):
    # 40.0 and 12.5 used to raise TypeError from chebfit, nan ValueError
    # from arange
    with pytest.raises(DomainError):
        solve_fixed_point(PERIOD_DOUBLING, 2, degree=degree)


def test_numpy_integer_degree_solves_as_int(tmp_path):
    fp = solve_fixed_point(PERIOD_DOUBLING, 2, degree=np.int64(40))
    assert np.array_equal(fp.e_coeffs, solve_ell(2).e_coeffs)
    with open(save_fixed_point(fp, str(tmp_path))) as fh:
        assert type(json.load(fh)["degree"]) is int


@pytest.mark.parametrize("coeffs, alpha", [
    ([1.0, -0.8], 0.0), ([1.0, -0.8], np.nan), ([1.0, -0.8], -np.inf),
    ([1.0, -0.8], "-2.5"), ([1.0, -0.8], True), ([1.0, -0.8], None),
    ([[1.0], [-0.8]], -2.5), ([], -2.5), ([1.0, np.nan], -2.5),
    (["1.0", "-0.8"], -2.5), ([[1.0, -0.8], [0.0]], -2.5), (None, -2.5)],
    ids=["alpha-0", "alpha-nan", "alpha-inf", "alpha-str", "alpha-bool",
         "alpha-none", "coeffs-2d", "coeffs-empty", "coeffs-nan",
         "coeffs-str", "coeffs-ragged", "coeffs-none"])
def test_bad_initial_guess_rejected(coeffs, alpha):
    # alpha 0 used to escape as ZeroDivisionError from the Jacobian, a 2-D
    # coefficient array as numpy's broadcast ValueError
    with pytest.raises(DomainError):
        solve_fixed_point(PERIOD_DOUBLING, 4, initial_guess=(coeffs, alpha))


def test_initial_guess_takes_numpy_and_integer_numbers():
    fp2 = solve_ell(2)
    guess = (list(fp2.e_coeffs), np.float64(-fp2.tau ** 0.25))
    fp4 = solve_fixed_point(PERIOD_DOUBLING, 4, initial_guess=guess)
    assert np.array_equal(fp4.e_coeffs, continue_in_ell(fp2).e_coeffs)
    fp = solve_fixed_point(PERIOD_DOUBLING, 2, initial_guess=(fp2.e_coeffs,
                                                              -2))
    assert abs(fp.alpha - fp2.alpha) < 1e-9 and fp.residual < 1e-10


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


_MALFORMED_NUMBERS = {
    "coeffs-nested": lambda r: r.update(coeffs=[[c] for c in r["coeffs"]]),
    "coeffs-string": lambda r: r["coeffs"].__setitem__(0, "0.5"),
    "coeffs-bool": lambda r: r["coeffs"].__setitem__(0, True),
    "coeffs-null": lambda r: r["coeffs"].__setitem__(0, None),
    "coeffs-empty": lambda r: r.update(coeffs=[], degree=-1),
    "coeffs-object": lambda r: r.update(coeffs={"0": 1.0}),
    "alpha-string": lambda r: r.update(alpha=str(r["alpha"])),
    "alpha-bool": lambda r: r.update(alpha=True),
    "residual-string": lambda r: r.update(residual=str(r["residual"])),
    "residual-null": lambda r: r.update(residual=None),
    "tol-string": lambda r: r.update(tol="1e-10"),
    "tol-list": lambda r: r.update(tol=[1e-10]),
}


def _malformed_record(tmp_path, fp, case):
    path = save_fixed_point(fp, str(tmp_path))
    with open(path) as fh:
        record = json.load(fh)
    _MALFORMED_NUMBERS[case](record)
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


@pytest.mark.parametrize("case", sorted(_MALFORMED_NUMBERS))
def test_malformed_number_field_rejected(tmp_path, fp2, case):
    # one-element coefficient lists used to raise a bare ValueError from
    # jet_table, and "0.5" used to be read as 0.5
    path = _malformed_record(tmp_path, fp2, case)
    for revalidate in (True, False):
        with pytest.raises(CorruptFile):
            load_fixed_point(path, revalidate=revalidate)


def test_cached_solve_resolves_over_nested_coefficients(tmp_path, fp2):
    path = _malformed_record(tmp_path, fp2, "coeffs-nested")
    with pytest.warns(UserWarning, match="rejected.*CorruptFile"):
        fp, got_path, hit = cached_solve(2, 40, 1e-10, str(tmp_path))
    assert got_path == path and not hit
    assert np.array_equal(fp.e_coeffs, fp2.e_coeffs)
    assert np.array_equal(load_fixed_point(path).e_coeffs, fp2.e_coeffs)


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
