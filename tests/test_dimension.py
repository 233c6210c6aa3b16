import csv
import itertools
import json
import os
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebmul, chebval, chebvander
from numpy.polynomial.polyutils import mapdomain

from feigdim.dimension import (
    CSV_HEADER,
    build_pressure_model,
    conformality_residual,
    cylinder_measure,
    hausdorff_dimension,
    moran_oracle,
    pressure_eigen,
    sweep,
    _BRACKET_NX,
    _BRACKET_XTOL,
    _MORAN_SCAN,
    _MORAN_XTOL,
    _PROBE_GRID,
    _OperatorBounds,
    _bowen_root,
    _crossing,
    _eigenfunction,
    _extend_words,
    _fit_adapted_metric,
    _leading_pair_both,
    _log_root,
    _logsumexp,
    _sample_points,
    _word_tables,
)
import feigdim.dimension
import feigdim.presentation
import feigdim.cheb
from feigdim.cheb import cheb_points, chop, eval01, jet_table, restrict01
from feigdim.errors import (
    DomainError,
    EigenvectorSignFailure,
    RatioNotContracting,
    RootNotBracketed,
    TailTooFat,
)
from feigdim.fixedpoint import cache_filename, load_fixed_point, save_fixed_point
from feigdim.presentation import build_presentation
from feigdim.roots import brentq
from feigdim.unimodal import build_system

from conftest import solve_ell
from oracles import HD_2, gauss_bary_weights

T_CANTOR = np.log(2.0) / np.log(3.0)


def test_toy_dimension_is_log2_over_log3(toy):
    res = hausdorff_dimension(toy, root_tol=1e-12)
    assert abs(res.hd - T_CANTOR) < 1e-10
    assert res.hd_lo <= T_CANTOR <= res.hd_hi
    assert res.hd_hi - res.hd_lo < 1e-9
    assert res.tail_t == 0.0


def test_toy_cylinder_measure(toy):
    pm = build_pressure_model(toy, K=2, Nc=32)
    cm = cylinder_measure(pm, T_CANTOR, depth=1)
    assert np.allclose(cm.mu, [0.5, 0.5], atol=1e-12)
    assert np.allclose(cm.xbar, [1.0 / 6.0, 5.0 / 6.0], atol=1e-9)
    # self-similarity: Var = (1/9) Var + (1/4) p(1-p) gives 1/8 overall,
    # and each level-1 piece carries Var/9 = 1/72
    assert np.allclose(cm.m2, 1.0 / 72.0, atol=1e-9)
    assert abs(cm.raw_mass - 1.0) < 1e-12
    assert abs(cm.lam - 1.0) < 1e-12
    assert conformality_residual(pm, T_CANTOR, depth=2) < 1e-13


def test_pressure_eigen_decreasing(pm2):
    ts = (0.3, 0.45, 0.6, 0.8)
    vals = [pressure_eigen(pm2, t) for t in ts]
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] > 0.0 > vals[-1]


def test_pressure_eigen_domain(pm2):
    with pytest.raises(DomainError):
        pressure_eigen(pm2, 0.0)
    with pytest.raises(DomainError):
        pressure_eigen(pm2, 2.5)


def test_bowen_root_reuses_its_probe_values(pm2, monkeypatch):
    # brentq starts from the two probes that bracket the root: two
    # pressure_eigen calls fewer than evaluating them afresh, same bits
    calls = []
    eigen = feigdim.dimension.pressure_eigen

    def counting(pm, t):
        calls.append(float(t))
        return eigen(pm, t)

    monkeypatch.setattr(feigdim.dimension, "pressure_eigen", counting)
    got = _bowen_root(pm2, 1e-10)
    cached = calls[:]
    calls.clear()
    vals = [counting(pm2, t) for t in _PROBE_GRID]
    i = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
    want = brentq(lambda t: counting(pm2, t), _PROBE_GRID[i],
                  _PROBE_GRID[i + 1], xtol=1e-10)
    assert got == want
    assert len(set(cached)) == len(cached) == len(calls) - 2


def test_bowen_root_zeroes_the_pressure(pm2, tstar2):
    assert abs(pressure_eigen(pm2, tstar2)) < 1e-9
    assert abs(tstar2 - HD_2) < 1e-8


def test_hausdorff_from_system(sys2):
    res = hausdorff_dimension(sys2)
    assert abs(res.hd - HD_2) < 1e-8
    assert res.hd_lo <= res.hd <= res.hd_hi
    assert res.tail_t < 1e-8


@pytest.mark.parametrize("kwargs", [{"K": 0}, {"K": -3}, {"Nc": 0}])
def test_empty_model_raises_domain_error(ps2, kwargs):
    with pytest.raises(DomainError):
        hausdorff_dimension(ps2, **kwargs)


def test_non_integer_truncation_raises_domain_error(sys2, ps2):
    with pytest.raises(DomainError):
        build_pressure_model(ps2, K=2.5)
    with pytest.raises(DomainError):
        build_pressure_model(ps2, K=True)
    with pytest.raises(DomainError):
        hausdorff_dimension(sys2, K=2.5)


def test_collocation_rows_are_the_barycentric_cardinal_functions():
    # B[a, i, j] is node j's cardinal function at psi_a of node i; the
    # 209 * Nc images span two or three of eval01's 4,096-point blocks
    interpolator = pytest.importorskip("scipy.interpolate")
    ps = build_presentation(build_system(solve_ell(20)))
    lo, hi = ps.interval
    for Nc in (24, 32, 48):
        pm = build_pressure_model(ps, K=209, Nc=Nc)
        nodes = cheb_points(lo, hi, Nc)
        cardinal = interpolator.BarycentricInterpolator(
            nodes, np.eye(Nc), wi=gauss_bary_weights(Nc))
        assert pm.B.shape == (209, Nc, Nc)
        assert np.max(np.abs(pm.B - cardinal(pm.imgs))) <= 1e-12

        def poly(x):    # degree Nc - 1, of order 1 on I
            u = (x - lo) / (hi - lo)
            return u ** (Nc - 1) - 0.5 * u

        got = np.einsum("aij,j->ai", pm.B, poly(nodes))
        assert np.max(np.abs(got - poly(pm.imgs))) <= 1e-13
        assert np.max(np.abs(pm.B.sum(axis=2) - 1.0)) <= 1e-13


def test_truncation_and_collocation_stability(ps2, tstar2):
    h24 = hausdorff_dimension(ps2, K=24, with_bracket=False).hd
    h34 = hausdorff_dimension(ps2, K=34, with_bracket=False).hd
    assert abs(h24 - h34) < 1e-4
    pm_a = build_pressure_model(ps2, K=30, Nc=24)
    pm_b = build_pressure_model(ps2, K=30, Nc=40)
    assert abs(_bowen_root(pm_a, 1e-10) - _bowen_root(pm_b, 1e-10)) < 1e-6
    assert abs(_bowen_root(pm_a, 1e-10) - tstar2) < 1e-4


def test_moran_bracket_contains_root(ps2, tstar2):
    br = moran_oracle(ps2, n=4)
    assert br.t_lo <= tstar2 <= br.t_hi
    assert br.width < 0.01
    assert br.K == 24 and br.n == 4
    lo, hi = br
    assert (lo, hi) == (br.t_lo, br.t_hi)


def test_moran_bracket_tightens_with_depth(ps2):
    widths = [moran_oracle(ps2, n=n, K=24).width for n in (2, 3, 4)]
    assert widths[0] > widths[1] > widths[2]


def test_moran_guards(ps2):
    with pytest.raises(DomainError):
        moran_oracle(ps2, n=0)
    with pytest.raises(DomainError):
        moran_oracle(ps2, n=6)
    with pytest.raises(DomainError):
        moran_oracle(ps2, n=2, K=70)
    with pytest.raises(DomainError):
        moran_oracle(ps2, n=4, K=40)  # 40^4 words blow the budget


@pytest.mark.parametrize("kwargs", [{"n": 2.5}, {"n": True},
                                    {"n": 2, "K": 2.5}, {"n": 2, "K": True},
                                    {"n": 2, "K": 0}])
def test_moran_oracle_takes_integer_n_and_K_only(ps2, kwargs):
    with pytest.raises(DomainError):
        moran_oracle(ps2, **kwargs)


def test_moran_oracle_takes_K_within_the_alphabet(toy):
    assert moran_oracle(toy, 2, K=2).K == 2
    with pytest.raises(DomainError):
        moran_oracle(toy, 2, K=3)


@pytest.mark.parametrize("check", [cylinder_measure, conformality_residual])
@pytest.mark.parametrize("depth", [2.5, True])
def test_word_measures_take_an_integer_depth_only(pm2, tstar2, check, depth):
    with pytest.raises(DomainError):
        check(pm2, tstar2, depth=depth)


@pytest.mark.parametrize("check", [cylinder_measure, conformality_residual])
@pytest.mark.parametrize("t_star", [np.nan, np.inf, 0.0, 2.5])
def test_word_measures_take_t_star_in_the_pressure_domain(pm2, check,
                                                          t_star):
    # as pressure_eigen: a NaN t_star fails up front, not in the power
    # iteration
    with pytest.raises(DomainError):
        check(pm2, t_star, depth=2)


def test_cylinder_measure_is_a_measure(pm2, tstar2):
    cm1 = cylinder_measure(pm2, tstar2, depth=1)
    cm2 = cylinder_measure(pm2, tstar2, depth=2)
    assert abs(float(cm1.mu.sum()) - 1.0) < 1e-12
    assert abs(cm1.raw_mass - 1.0) < 1e-10
    assert abs(cm2.raw_mass - 1.0) < 1e-10
    assert np.all(cm1.mu > 0.0) and np.all(cm2.mu > 0.0)
    assert abs(cm1.lam - 1.0) < 1e-9
    # reference masses of the first cylinders
    assert np.allclose(cm1.mu[:4], [0.39874, 0.23232, 0.14424, 0.08743],
                       atol=2e-5)
    # appending a letter refines: masses of children sum to the parent
    raw1 = cm1.mu * cm1.raw_mass
    raw2 = cm2.mu * cm2.raw_mass
    # rows are lexicographic over the letters 1..K
    letters = range(1, pm2.K + 1)
    idx = {w: i for i, w in enumerate(itertools.product(letters, repeat=2))}
    for i, w in enumerate(itertools.product(letters, repeat=1)):
        child_sum = sum(raw2[idx[w + (a,)]] for a in letters)
        assert abs(child_sum - raw1[i]) < 1e-10
    # barycenters sit inside their cylinders, inside I
    lo, hi = pm2.ifs.interval
    assert np.all((cm2.xbar >= lo) & (cm2.xbar <= hi))
    assert np.all(cm2.m2 >= 0.0)


def test_conformality_residual_small(pm2, tstar2):
    assert conformality_residual(pm2, tstar2, depth=2) < 1e-6
    assert conformality_residual(pm2, tstar2, depth=3) < 1e-6
    with pytest.raises(DomainError):
        conformality_residual(pm2, tstar2, depth=1)


def test_sweep_two_levels(tmp_path):
    calls = []
    report = sweep([2, 4], progress=lambda ell, rep: calls.append(
        (ell, rep, len(rep.rows))))
    assert not report.failures
    # one call per ell, in order, each after that ell's row
    assert calls == [(2, report, 1), (4, report, 2)]
    assert [row["ell"] for row in report.rows] == [2, 4]
    assert abs(report.rows[0]["hd"] - HD_2) < 1e-6
    assert report.rows[1]["hd"] > report.rows[0]["hd"]
    for row in report.rows:
        assert row["hd_lo"] <= row["hd"] <= row["hd_hi"]
        assert abs(row["tau"] - abs(row["alpha"]) ** row["ell"]) < 1e-9
    path = str(tmp_path / "sweep.csv")
    report.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_HEADER
    assert len(rows) == 2
    # every cell reads back as the float it prints: the bracket's ends
    # keep their outward rounding
    for row, want in zip(rows, report.rows):
        for key in ("hd", "hd_lo", "hd_hi", "alpha", "tau", "tail_bound"):
            assert float(row[key]) == want[key]


def test_sweep_rejects_bad_ell_lists():
    for bad in ([3], [4, 2], [2, 2], [0]):
        with pytest.raises(DomainError):
            sweep(bad)


def test_sweep_records_failures():
    report = sweep([2], degree=6)
    assert report.rows == []
    assert len(report.failures) == 1
    ell, msg = report.failures[0]
    assert ell == 2
    assert "DomainError" in msg


def test_sweep_warns_on_rejected_cache_and_resolves(tmp_path):
    path = os.path.join(str(tmp_path), cache_filename((2, 2, 40)))
    with open(path, "w") as fh:
        fh.write("{ torn")
    with pytest.warns(UserWarning) as caught:
        report = sweep([2], cache_dir=str(tmp_path))
    rejects = [w for w in caught if "rejected" in str(w.message)]
    assert len(rejects) == 1
    assert path in str(rejects[0].message)
    assert "CorruptFile" in str(rejects[0].message)
    assert not report.failures
    assert [row["ell"] for row in report.rows] == [2]
    assert abs(report.rows[0]["hd"] - HD_2) < 1e-6
    assert load_fixed_point(path).ell == 2


def test_sweep_resolves_unsupported_combinatorics_record(tmp_path, fp2):
    path = save_fixed_point(fp2, str(tmp_path))
    record = json.load(open(path))
    record["p"] = 3
    json.dump(record, open(path, "w"))
    with pytest.warns(UserWarning) as caught:
        report = sweep([2], cache_dir=str(tmp_path))
    rejects = [w for w in caught if "rejected" in str(w.message)]
    assert len(rejects) == 1
    assert "UnsupportedCombinatorics" in str(rejects[0].message)
    assert not report.failures
    assert [row["ell"] for row in report.rows] == [2]
    assert abs(report.rows[0]["hd"] - HD_2) < 1e-6
    assert json.load(open(path))["p"] == 2
    assert load_fixed_point(path).ell == 2


def test_sweep_resolves_a_record_filed_under_another_ell(tmp_path, fp2):
    # the ell-2 record copied to the ell-4 name is not the ell-4 map
    path2 = save_fixed_point(fp2, str(tmp_path))
    path4 = os.path.join(str(tmp_path), cache_filename((2, 4, 40)))
    shutil.copyfile(path2, path4)
    with pytest.warns(UserWarning) as caught:
        report = sweep([2, 4, 6], cache_dir=str(tmp_path))
    rejects = [w for w in caught if "rejected" in str(w.message)]
    assert len(rejects) == 1
    assert path4 in str(rejects[0].message)
    assert not report.failures
    assert [row["ell"] for row in report.rows] == [2, 4, 6]
    assert load_fixed_point(path4).ell == 4


def _adapted_metric_system(interval, xs, vals, lds, nq=16):
    """The fit's least-squares system, row by row: per letter a and sample
    x, q(psi_a x) - q(x) - c_a = -log|psi_a'(x)|; then q's mean = 0."""
    na, ns = lds.shape
    rows = np.zeros((na * ns + 1, nq + na))
    rhs = np.zeros(na * ns + 1)
    u = lambda x: mapdomain(x, interval, (-1.0, 1.0))
    for a in range(na):
        block = slice(a * ns, (a + 1) * ns)
        rows[block, :nq] = (chebvander(u(vals[a]), nq - 1)
                            - chebvander(u(xs), nq - 1))
        rows[block, nq + a] = -1.0
        rhs[block] = -lds[a]
    rows[-1, 0] = 1.0
    return rows, rhs


# the letters the fits are compared on; moran_oracle fits q on K <= 64
_FIT_K = 40


def test_adapted_metric_fit_matches_svd_lstsq(ps2):
    xs = _sample_points(ps2.interval, 9)
    vals, lds = _metric_samples(ps2, xs, _FIT_K)
    got, _ = _fit_adapted_metric(ps2.interval, xs, vals, lds)
    rows, rhs = _adapted_metric_system(ps2.interval, xs, vals, lds)
    want = np.linalg.lstsq(rows, rhs, rcond=None)[0][:16]
    assert float(np.max(np.abs(got - want))) <= 1e-10


def _metric_samples(ps, xs, K):
    jets = list(ps.letter_jets(K, xs, 1))
    vals = np.stack([val for val, _ in jets])
    return vals, np.log(np.abs(np.stack([der for _, der in jets])))


def test_adapted_metric_series_matches_node_value_fit(ps2):
    # The same least-squares problem posed on q's values at 16 Gauss nodes,
    # evaluated by scipy's barycentric interpolation, with their mean pinned.
    interpolator = pytest.importorskip("scipy.interpolate")
    xs = _sample_points(ps2.interval, 9)
    vals, lds = _metric_samples(ps2, xs, _FIT_K)
    q, delta_q = _fit_adapted_metric(ps2.interval, xs, vals, lds)
    nq = 16
    qnodes = cheb_points(*ps2.interval, nq)
    cardinal = interpolator.BarycentricInterpolator(
        qnodes, np.eye(nq), wi=gauss_bary_weights(nq))
    na, ns = lds.shape
    rows = np.zeros((na * ns + 1, nq + na))
    rhs = np.zeros(na * ns + 1)
    for a in range(na):
        block = slice(a * ns, (a + 1) * ns)
        rows[block, :nq] = cardinal(vals[a]) - cardinal(xs)
        rows[block, nq + a] = -1.0
        rhs[block] = -lds[a]
    rows[-1, :nq] = 1.0 / nq
    qvals = np.linalg.lstsq(rows, rhs, rcond=None)[0][:nq]
    lo, hi = ps2.interval
    grid = np.linspace(lo, hi, 512)
    want = cardinal(grid) @ qvals
    got = eval01(q, (grid - lo) / (hi - lo))
    assert float(np.max(np.abs(got - want))) <= 1e-12
    assert abs(delta_q - float(want.max() - want.min())) <= 1e-12


def _per_level_word_tables(ifs, K, n, q):
    """Per-word sup/inf of the log derivative in the metric exp(q), walked
    one letter at a time: prepending psi to a word whose positions are x
    adds log|psi'(x)| + q(psi x) - q(x), with q evaluated by chebval."""
    lo, hi = ifs.interval

    def qv(x):
        return chebval(2.0 * (x - lo) / (hi - lo) - 1.0, q)

    pos = _sample_points(ifs.interval, 9)[None, :]
    ld = np.zeros_like(pos)
    for _ in range(n):
        steps = [(val, np.log(np.abs(der)) + qv(val) - qv(pos) + ld)
                 for val, der in ifs.letter_jets(K, pos, 1)]
        pos = np.concatenate([val for val, _ in steps])
        ld = np.concatenate([step for _, step in steps])
    return ld.max(axis=1), ld.min(axis=1)


def test_word_tables_add_the_metric_once(ps2, toy):
    # q telescopes along a word: added once after the walk, it matches the
    # per-level sums word for word
    for ifs, K, n in ((ps2, 24, 3), (toy, 2, 4)):
        xs = _sample_points(ifs.interval, 9)
        vals, lds = _metric_samples(ifs, xs, K)
        q = _fit_adapted_metric(ifs.interval, xs, vals, lds)[0]
        sup, inf, _, _ = _word_tables(ifs, K, n)
        want_sup, want_inf = _per_level_word_tables(ifs, K, n, q)
        assert sup.shape == want_sup.shape == (K ** n,)
        assert np.max(np.abs(sup - want_sup)) <= 1e-13
        assert np.max(np.abs(inf - want_inf)) <= 1e-13


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_letter_stream_reads_q_at_every_letter(ell):
    # item k ends with q at psi_k(x), read off step k + 1's table on
    # cylinder k, for the metric the Moran walk fits; against q's series
    # on I at the yielded values. Re-expansion and either evaluation cost
    # at most m eps sum|q_j| each, and an argument rounded by eps moves q by
    # at most 2 eps sum j^2 |q_j| (Markov), on both sides (observed: at
    # most 0.026 of the bound)
    ps = build_presentation(build_system(solve_ell(ell)))
    lo, hi = ps.interval
    xs = _sample_points(ps.interval, 9)
    q = _fit_adapted_metric(ps.interval, xs, *_metric_samples(ps, xs, 24))[0]
    j = np.arange(len(q))
    bound = np.finfo(float).eps * (3 * len(q) * np.sum(np.abs(q))
                                   + 4 * np.sum(j * j * np.abs(q)))
    x = np.linspace(lo - 1e-9, hi + 1e-9, 1001)
    for K in (24, ps.Kmax):
        items = list(ps.letter_jets(K, x, 1, q=q))
        assert len(items) == K
        for val, _, qv in items:
            assert qv.shape == x.shape
            assert np.max(np.abs(qv - eval01(q, (val - lo) / (hi - lo)))) \
                <= bound


def _per_letter_extend_words(ifs, K, pos, logd):
    """_extend_words filled one letter's block of word columns at a time:
    the reference for the letter-major (samples, words) fill."""
    nw = pos.shape[1]
    new_pos = np.empty((pos.shape[0], K * nw))
    new_logd = np.empty_like(new_pos)
    for a, (val, der) in enumerate(ifs.letter_jets(K, pos, 1)):
        block = slice(a * nw, (a + 1) * nw)
        new_pos[:, block] = val
        np.add(np.log(np.abs(der)), logd, out=new_logd[:, block])
    return new_pos, new_logd


@pytest.mark.parametrize("ell", [2, 20])
def test_word_walk_matches_a_per_letter_loop(ell):
    # the Moran walk's alphabet (K = 24) from the empty word to depth 3
    ps = build_presentation(build_system(solve_ell(ell)))
    xs = _sample_points(ps.interval, 9)[:, None]
    got = want = (xs, np.zeros_like(xs))
    for depth in (1, 2, 3):
        got = _extend_words(ps, 24, *got)
        want = _per_letter_extend_words(ps, 24, *want)
        for table, ref in zip(got, want):
            assert table.shape == (9, 24 ** depth)
            assert np.array_equal(table, ref)


def _full_word_tables(ifs, K, n, whole_q=False):
    """_word_tables with the last level's (9, K^n) tables built whole and q
    added one letter's columns at a time: the reference for the streamed
    last level, and a bound on its distance from it. The positions and log
    derivatives are the letter stream's, over all words at once. From depth
    2 on, letter a's columns read q re-expanded on level a of the stream
    (cylinder a widened), as the stream does, but by Clenshaw apart from
    the stream's shared table; whole_q reads q on all of I instead.

    The bound adds, per letter, two evaluations' m eps sum|c| of the level
    series c, and 3 eps M for summing log|psi'| + log|Dphi_w| - q(x) +
    q(phi_w x) in another order, M = |log|Dphi_{aw}|| + |q(x)| + |q(phi_w x)|
    bounding every partial sum (log|psi'| and log|Dphi_w| share their sign,
    every letter contracting)."""
    lo, hi = ifs.interval
    eps = np.finfo(float).eps
    xs = _sample_points(ifs.interval, 9)
    vals, lds = _extend_words(ifs, K, xs[:, None], np.zeros((xs.size, 1)))
    q = _fit_adapted_metric(ifs.interval, xs, vals.T, lds.T)[0]
    qx = eval01(q, (xs - lo) / (hi - lo))[:, None]
    ld1 = eval01(q, (vals - lo) / (hi - lo)) - qx + lds
    if n == 1:
        return ld1.max(axis=0), ld1.min(axis=0), ld1.max(axis=0), 0.0
    pos, logd = vals, lds
    for _ in range(n - 2):
        pos, logd = _extend_words(ifs, K, pos, logd)
    ns, nw = pos.shape
    table, bound = np.empty((ns, K, nw)), 0.0
    stream = ifs.letter_jets(K, pos.ravel(), 1, q=q)
    for a, (val, der, _) in enumerate(stream):
        val = val.reshape(ns, nw)
        ld = np.log(np.abs(der)).reshape(ns, nw) + logd
        if whole_q:
            qv = eval01(q, (val - lo) / (hi - lo))
        else:
            a0, b0 = ifs.g_levels[a + 1][:2]
            span = chop(restrict01(q, (a0 - lo) / (hi - lo),
                                   (b0 - lo) / (hi - lo)))
            qv = eval01(span, (val - a0) / (b0 - a0))
            m = np.max(np.abs(ld) + np.abs(qx) + np.abs(qv))
            bound = max(bound, 2 * len(span) * eps * np.sum(np.abs(span))
                        + 3 * eps * m)
        table[:, a] = ld + (qv - qx)
    table = table.reshape(ns, K * nw)
    return table.max(axis=0), table.min(axis=0), ld1.max(axis=0), bound


@pytest.mark.parametrize("ell", [2, 20])
def test_streamed_word_tables_match_the_full_tables(ell):
    # within the reference's bound of the tables with q read on the same
    # levels (observed: at most 0.47 of it), and to roundoff against q read
    # on all of I
    ps = build_presentation(build_system(solve_ell(ell)))
    for n in (1, 2, 4):
        got = _word_tables(ps, 24, n)[:3]
        *want, bound = _full_word_tables(ps, 24, n)
        whole = _full_word_tables(ps, 24, n, whole_q=True)[:3]
        for table, ref, ref_whole in zip(got, want, whole):
            assert table.shape == ref.shape
            assert np.max(np.abs(table - ref)) <= bound
            assert np.max(np.abs(table - ref_whole)) <= 1e-13


def _dot_error(nu, v):
    """Bound on the reassociation error of every nu @ v[:, w], a length-Nc
    dot product: 2 Nc eps sum_i |nu_i v_iw| (Higham, ch. 3)."""
    return 2 * len(nu) * np.finfo(float).eps * (np.abs(nu) @ np.abs(v))


def _full_cylinder_measure(pm, t_star, depth):
    """cylinder_measure on the whole (Nc, K^depth) tables of _extend_words:
    the reference for the per-letter last level. Returns its fields and,
    field by field, a bound on what summing the nu dot products in another
    order moves them by: the words' weights nu @ core, the barycenters and
    the second moments, each a ratio of such sums, and mu their share."""
    lam, _, nu = _leading_pair_both(pm, t_star)
    Z = float(nu.sum())
    pos, logd = pm.imgs.T, np.log(pm.ders).T
    for _ in range(depth - 1):
        pos, logd = _extend_words(pm.ifs, pm.K, pos, logd)
    core = np.exp(logd * t_star)
    weight = nu @ core
    raw = weight / (Z * lam ** depth)
    raw_mass = float(raw.sum())
    xbar = nu @ (core * pos) / weight
    m2 = nu @ (core * (pos - xbar) ** 2) / weight
    eps = np.finfo(float).eps
    rel_w = _dot_error(nu, core) / weight
    tol_mass = (rel_w.max() + 4 * eps) * raw_mass
    tol_mu = (rel_w + rel_w.max() + 4 * eps) * raw / raw_mass
    tol_xbar = (_dot_error(nu, core * pos) / weight
                + (rel_w + 2 * eps) * np.abs(xbar))
    # m2 moves with xbar too: d m2 / d xbar = -2 nu @ (core (pos - xbar)) / W
    slope = 2 * np.abs(nu @ (core * (pos - xbar))) / weight
    tol_m2 = (_dot_error(nu, core * (pos - xbar) ** 2) / weight
              + (rel_w + 4 * eps) * m2 + slope * tol_xbar + tol_xbar ** 2)
    return ((raw / raw_mass, xbar, m2, lam, raw_mass),
            (tol_mu, tol_xbar, tol_m2, 0.0, tol_mass))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_streamed_cylinder_measure_matches_the_full_tables(pm2, tstar2,
                                                           depth):
    # the per-letter blocks sum each nu dot product in the order the BLAS
    # kernel picks for their shape, so each entry agrees with the whole
    # table's within the reassociation error of those sums, about 64 eps
    # relative (a BLAS whose order does not depend on the shape gives the
    # same bits); lam is the same eigenvalue
    cm = cylinder_measure(pm2, tstar2, depth)
    want, tols = _full_cylinder_measure(pm2, tstar2, depth)
    for got, ref, tol in zip((cm.mu, cm.xbar, cm.m2, cm.lam, cm.raw_mass),
                             want, tols):
        assert np.shape(got) == np.shape(ref)
        assert np.all(np.abs(got - ref) <= tol)


def _full_scan_root(fn, start=0):
    """_log_root scanning the _MORAN_SCAN grid from its point start, with
    brentq evaluating the bracket's ends again: the reference for the scan
    from a floor."""
    prev_t, prev_v = None, None
    for t in _MORAN_SCAN[start:]:
        try:
            v = fn(t)
        except (RatioNotContracting, OverflowError):
            prev_t, prev_v = None, None
            continue
        if prev_v is not None and prev_v > 0.0 >= v:
            return brentq(fn, prev_t, t, xtol=_MORAN_XTOL)
        prev_t, prev_v = t, v
    raise RootNotBracketed("Moran sum never crosses 1 on the scan range")


def _counted(fn):
    calls = []

    def counting(t):
        calls.append(t)
        return fn(t)
    return counting, calls


@pytest.mark.parametrize("ell", [2, 8, 20, None])
def test_floored_moran_scan_finds_the_full_scan_root(ell, toy, monkeypatch):
    # each Moran root, scanned from its floor (Jensen's for the inf-side
    # sum, t_lo for the sup side), has the bits of the full scan's root in
    # fewer sum calls, and brentq takes the bracket's ends from the scan:
    # 2 calls fewer than a scan from the same point that evaluates them
    # again; ell None is the toy IFS
    ifs = toy if ell is None else build_presentation(build_system(
        solve_ell(ell)))
    scans = []

    def recording(fn, t_floor):
        scans.append((fn, t_floor, _log_root(fn, t_floor)))
        return scans[-1][2]

    monkeypatch.setattr(feigdim.dimension, "_log_root", recording)
    for n in (2, 4):
        scans.clear()
        br = moran_oracle(ifs, n)
        (_, jensen, t_lo), (_, floor_hi, t_hi) = scans
        assert (t_lo, t_hi) == (br.t_lo, br.t_hi)
        assert floor_hi == t_lo
        if ell is None:     # all toy words contract alike: Jensen is sharp
            assert abs(jensen - t_lo) <= _MORAN_XTOL
        else:
            assert jensen < t_lo
        for fn, t_floor, root in scans:
            floored, calls = _counted(fn)
            full, full_calls = _counted(fn)
            assert _log_root(floored, t_floor) == root == _full_scan_root(full)
            assert len(calls) < len(full_calls)
            again, again_calls = _counted(fn)
            start = int(np.searchsorted(_MORAN_SCAN, calls[0]))
            assert _MORAN_SCAN[start] == calls[0]
            assert _full_scan_root(again, start) == root
            assert len(calls) == len(again_calls) - 2


def test_logsumexp_in_a_buffer_matches_fresh_temporaries():
    rng = np.random.default_rng(7)
    for a in (rng.normal(size=1000) * 40.0, np.array([3.0, -1.0, 3.0, 2.5]),
              np.array([-np.inf, 0.5, 0.5]), np.array([1.5])):
        want = _logsumexp(a)
        keep = a.copy()
        assert _logsumexp(a, out=np.empty_like(a)) == want
        assert np.array_equal(a, keep)
        assert _logsumexp(a, out=a) == want     # a buffer may be a itself


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def test_depth_4_moran_bracket_stays_in_bounded_memory():
    # the whole depth-4 tables, 24^4 words x 9 samples, are 24 MB each;
    # the streamed last level keeps the peak under one of them
    ps20 = build_presentation(build_system(solve_ell(20)))
    assert _traced_peak_mb(moran_oracle, ps20, 4) <= 24.0


def test_depth_3_conformality_check_stays_in_bounded_memory(pm2, tstar2):
    # 40^3 cylinders on 32 nodes: each whole table would be 16 MB
    assert _traced_peak_mb(conformality_residual, pm2, tstar2, 3) <= 24.0


def test_moran_bracket_of_the_toy_is_exact(toy):
    br = moran_oracle(toy, n=3)
    assert br.t_lo - 1e-12 <= T_CANTOR <= br.t_hi + 1e-12
    assert br.t_hi - br.t_lo <= 1e-12
    assert br.K == 2


def _conformality_by_word_index(pm, t_star, depth):
    """conformality_residual as a dict from words to rows, tuple by tuple."""
    fine = cylinder_measure(pm, t_star, depth)
    letters = range(1, pm.K + 1)
    words = list(itertools.product(letters, repeat=depth))
    index = {w: n for n, w in enumerate(words)}
    prefixes = [w[1:] for w in words[: pm.K ** (depth - 1)]]
    idx_app = np.array([[index[u + (j,)] for j in letters] for u in prefixes])
    raw = fine.mu * fine.raw_mass
    worst = 0.0
    for i, (_, d1, d2, d3) in zip(letters,
                                  pm.ifs.letter_jets(pm.K, fine.xbar, 3)):
        F = np.abs(d1) ** t_star
        F2 = F * t_star * ((t_star - 1.0) * (d2 / d1) ** 2 + d3 / d1)
        term = (F + 0.5 * F2 * fine.m2) * raw
        rhs = term[idx_app].sum(axis=1)
        lhs = fine.lam * raw[[index[(i,) + u] for u in prefixes]]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("depth", [2, 3])
def test_conformality_residual_matches_word_index_loop(depth, pm2, tstar2,
                                                       toy):
    assert (conformality_residual(pm2, tstar2, depth)
            == _conformality_by_word_index(pm2, tstar2, depth))
    pm = build_pressure_model(toy, K=2, Nc=32)
    assert (conformality_residual(pm, T_CANTOR, depth)
            == _conformality_by_word_index(pm, T_CANTOR, depth))


@pytest.mark.parametrize("ell", range(2, 21, 2))
def test_operator_bracket_contains_root_and_is_tight(ell):
    res = hausdorff_dimension(build_system(solve_ell(ell)))
    assert res.hd_lo <= res.hd <= res.hd_hi
    assert res.hd_hi - res.hd_lo <= 1e-6


def _test_function(series, interval):
    """The (h, h') stack _OperatorBounds takes, h the series on interval:
    _eigenfunction's table for any series."""
    table = jet_table(series, 1)
    table[:, 1] /= interval[1] - interval[0]
    return table


def test_operator_bracket_holds_for_any_positive_test_function(pm2, tstar2):
    # The certificate may not lean on the collocation being right: a flat
    # h and the eigenvector times the positive 1 + 0.1 T_3 give wider
    # brackets that still hold.
    eigen = _eigenfunction(pm2, tstar2)
    flat = _test_function([1.0], pm2.ifs.interval)
    wobbled = _test_function(chebmul(eigen[:, 0], [1.0, 0.0, 0.0, 0.1]),
                             pm2.ifs.interval)
    t_lo, t_hi = _OperatorBounds(pm2.ifs, pm2.K, eigen).bracket(tstar2)
    assert t_lo <= tstar2 <= t_hi
    for h in (flat, wobbled):
        lo_h, hi_h = _OperatorBounds(pm2.ifs, pm2.K, h).bracket(tstar2)
        assert lo_h <= tstar2 <= hi_h
        assert hi_h - lo_h > t_hi - t_lo


def test_operator_bracket_covers_the_dropped_letters(ps2, tstar2):
    # At K = 24 the truncated root sits below the K = 40 one; only the
    # tail term lifts the upper bound over it.
    res = hausdorff_dimension(ps2, K=24)
    assert res.hd < tstar2
    assert res.hd_lo <= tstar2 <= res.hd_hi


@pytest.mark.parametrize("ell", [2, 20])
def test_operator_bracket_slack_covers_a_finer_grid(ell, monkeypatch):
    ifs = build_presentation(build_system(solve_ell(ell)))
    res = hausdorff_dimension(ifs, with_bracket=False)
    h = _eigenfunction(build_pressure_model(ifs, K=res.K), res.hd)
    low, high = _OperatorBounds(ifs, res.K, h).envelope(res.hd)
    monkeypatch.setattr(feigdim.dimension, "_BRACKET_NX",
                        4 * (_BRACKET_NX - 1) + 1)
    r, _ = _OperatorBounds(ifs, res.K, h).ratio(res.hd)
    assert len(r) == 4 * (_BRACKET_NX - 1) + 1
    assert low <= float(r.min()) and float(r.max()) <= high


def _bracket_per_crossing(bounds, t0):
    """_OperatorBounds.bracket with each crossing evaluating the envelope
    afresh at every t it reads: the reference for the shared evaluations."""
    lo = _crossing(lambda t: bounds.envelope(t)[0] - 1.0, t0)
    hi = _crossing(lambda t: (bounds.envelope(t)[1] + bounds.ifs.tail_bound(
        bounds.K, t) * bounds.spread) - 1.0, t0)
    return lo - _BRACKET_XTOL, hi + _BRACKET_XTOL


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_operator_bracket_reads_each_envelope_once(ell):
    # the bits of the per-crossing bracket, with the ratio evaluated once
    # per t: the crossings share their window ends and brentq starts from
    # stored values (observed: 10, 12, 13 ratio calls against 16, 18, 19)
    ifs = build_presentation(build_system(solve_ell(ell)))
    res = hausdorff_dimension(ifs, with_bracket=False)
    h = _eigenfunction(build_pressure_model(ifs, K=res.K), res.hd)
    counts = []
    for bracket in (_OperatorBounds.bracket, _bracket_per_crossing):
        bounds = _OperatorBounds(ifs, res.K, h)
        ratio, calls = _counted(bounds.ratio)
        bounds.ratio = ratio
        counts.append((bracket(bounds, res.hd), calls))
    (got, calls), (want, ref_calls) = counts
    assert got == want
    assert len(set(calls)) == len(calls)
    assert len(calls) <= len(ref_calls) - 6


def _per_letter_bracket_tables(ifs, K, h):
    """_OperatorBounds' four tables built one letter at a time, with h and
    h' evaluated on their series at the images (h(val)), and stacked at
    the end; with the (K, grid) table of |psi'| and h(x) on the grid."""
    lo, hi = ifs.interval
    x = np.linspace(lo, hi, _BRACKET_NX)
    hx, _ = eval01(h, (x - lo) / (hi - lo))
    logd, hv, curv, slope, d1s = [], [], [], [], []
    for val, d1, d2, _ in ifs.letter_jets(K, x, 2, h):
        hval, dhval = eval01(h, (val - lo) / (hi - lo))
        logd.append(np.log(np.abs(d1)))
        hv.append(hval / hx)
        curv.append(d2 / d1 * hval / hx)
        slope.append(d1 * dhval / hx)
        d1s.append(np.abs(d1))
    return [np.stack(a) for a in (logd, hv, curv, slope, d1s)], hx


@pytest.mark.parametrize("ell", [2, 20])
def test_operator_bracket_tables_match_a_per_letter_loop(ell):
    # the row's own K and h: at ell 20 that is 209 letters, whose stacked
    # images cross many of eval01's point blocks. The jets are the
    # stream's own; h and h' ride it as two columns re-expanded on each
    # cylinder, against their series on I at the images: per column c,
    # at most eps (3 m sum|c_j| + 4 sum j^2 |c_j|) apart (as for the Moran
    # metric q), which the tables carry divided by h(x) and times d2/d1
    # (curv) or psi' (slope), plus 4 eps of each entry for the roundoff of
    # their own products and quotients
    ifs = build_presentation(build_system(solve_ell(ell)))
    res = hausdorff_dimension(ifs, with_bracket=False)
    h = _eigenfunction(build_pressure_model(ifs, K=res.K), res.hd)
    bounds = _OperatorBounds(ifs, res.K, h)
    (logd, *want, d1), hx = _per_letter_bracket_tables(ifs, res.K, h)
    eps, j = np.finfo(float).eps, np.arange(len(h))[:, None]
    beta = eps * (3 * len(h) * np.sum(np.abs(h), axis=0)
                  + 4 * np.sum(j * j * np.abs(h), axis=0))
    scales = (beta[0], beta[0] * np.abs(want[1] / want[0]), beta[1] * d1)
    assert bounds.tables.shape == (4, res.K, _BRACKET_NX)
    assert np.array_equal(bounds.tables[0], logd)
    for table, ref, scale in zip(bounds.tables[1:], want, scales):
        assert np.all(np.abs(table - ref)
                      <= scale / hx + 4 * eps * np.abs(ref))


def test_operator_bracket_rejects_sign_changing_test_function(pm2):
    # h = x - mid, the series (hi - lo) / 2 T_1 on I
    lo, hi = pm2.ifs.interval
    h = _test_function([0.0, 0.5 * (hi - lo)], pm2.ifs.interval)
    with pytest.raises(EigenvectorSignFailure):
        _OperatorBounds(pm2.ifs, pm2.K, h)


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_letter_stream_reads_a_stack_of_series_per_column(ell):
    # a two-column stack rides the stream as one (2, points) array per
    # item; each column within roundoff of its own one-column stream: the
    # same re-expanded coefficients, read by a T-table against Clenshaw,
    # and a head kept up to the stack's longest, each at most
    # eps (3 m sum|c_j| + 4 sum j^2 |c_j|) (as for the Moran metric q)
    ps = build_presentation(build_system(solve_ell(ell)))
    xs = _sample_points(ps.interval, 9)
    q = _fit_adapted_metric(ps.interval, xs, *_metric_samples(ps, xs, 24))[0]
    stack = jet_table(q, 1)
    eps, j = np.finfo(float).eps, np.arange(len(stack))[:, None]
    bound = eps * (3 * len(stack) * np.sum(np.abs(stack), axis=0)
                   + 4 * np.sum(j * j * np.abs(stack), axis=0))
    x = np.linspace(*ps.interval, 1001)
    items = list(ps.letter_jets(ps.Kmax, x, 1, q=stack))
    assert len(items) == ps.Kmax
    for c in range(2):
        singles = ps.letter_jets(ps.Kmax, x, 1, q=stack[:, c])
        for (_, _, qv), (_, _, want) in zip(items, singles, strict=True):
            assert qv.shape == (2, len(x)) and want.shape == x.shape
            assert np.max(np.abs(qv[c] - want)) <= bound[c]


def _count_eval01(monkeypatch):
    """Record (coefficient shape, points) of every eval01 call."""
    calls = []

    def counting(coeffs, u):
        calls.append((np.shape(coeffs), np.size(u)))
        return eval01(coeffs, u)

    for module in (feigdim.cheb, feigdim.dimension):
        monkeypatch.setattr(module, "eval01", counting)
    return calls


def test_certified_row_reads_no_long_eval01_pass(monkeypatch):
    # the bracket reads h at the images on the letter stream, so no eval01
    # call of a row reads more points than the collocation images, K * Nc
    # (6,688 at ell 20; h(val) read K * 1001 = 209,209)
    ps = build_presentation(build_system(solve_ell(20)))
    calls = _count_eval01(monkeypatch)
    res = hausdorff_dimension(ps)
    assert res.K == 209 and res.Nc == 32
    assert 0 < max(size for _, size in calls) <= res.K * res.Nc == 6688


def test_moran_walk_reads_long_single_series_only_at_the_last_letter(
        monkeypatch):
    # eval01 reads one series by chebval in 4,096-point blocks. Of a depth-4
    # walk's one-series calls, only the last letter's q reads, one per
    # stream of the last level, read more than the 512 points of
    # _fit_adapted_metric's grid: 9 samples * 24^3 words = 124,416 points
    # of a 7-term series at ell 20. More long one-series traffic than this
    # means timing chebval against an in-place Clenshaw loop again.
    ps = build_presentation(build_system(solve_ell(20)))
    calls = _count_eval01(monkeypatch)
    moran_oracle(ps, n=4)
    long = [(shape[0], size) for shape, size in calls
            if shape[1:] in ((), (1,)) and size > 512]
    assert len(long) == 3 and all(terms <= 7 for terms, _ in long)
    assert sum(size for _, size in long) == 9 * 24 ** 3


def test_ell_22_row_escalates_past_undecayed_tail_levels():
    # At ell 22 the tail levels still grow near letter 31, so the first
    # models raise RatioNotContracting; escalation doubles K instead of
    # stopping while the alphabet has room.
    res = hausdorff_dimension(build_system(solve_ell(22)))
    assert res.hd_lo <= res.hd <= res.hd_hi
    assert res.hd_hi - res.hd_lo <= 1e-8
    assert res.tail_t < 1e-8
    assert abs(res.hd - 0.76705763) < 1e-8


class _UndecayedTail:
    """A presentation whose tail levels never decay: tail_bound raises."""

    def __init__(self, ps):
        self._ps, self.interval, self.Kmax = ps, ps.interval, ps.Kmax

    def letter_jets(self, K, x, nder=1, q=None):
        return self._ps.letter_jets(K, x, nder, q)

    def tail_bound(self, K, t):
        raise RatioNotContracting(f"levels not decaying at K={K}")


class _FatTail(_UndecayedTail):
    """A presentation whose tail never falls below the budget."""

    def tail_bound(self, K, t):
        return 1.0


def test_fakes_carry_only_the_protocol(toy, ps2):
    # the engine reads interval, Kmax, letter_jets and tail_bound; the fakes
    # that stand in for a presentation offer nothing else
    protocol = {"interval", "Kmax", "letter_jets", "tail_bound"}
    for fake in (toy, _UndecayedTail(ps2)):
        assert {m for m in dir(fake) if not m.startswith("_")} == protocol
    assert [len(list(toy.letter_jets(K, [0.5]))) for K in (1, 2)] == [1, 2]
    # with q, each item ends with q at the image: q(u) = 2u - 1 on [0, 1]
    q = np.array([0.0, 1.0])
    for val, _, qv in toy.letter_jets(2, [0.5], 1, q=q):
        assert np.array_equal(qv, 2.0 * val - 1.0)
    items = list(_UndecayedTail(ps2).letter_jets(2, [0.7], 1, q=q))
    assert [len(item) for item in items] == [3, 3]


def test_fat_tail_exhausts_the_alphabet_before_raising(ps2):
    with pytest.raises(TailTooFat, match=f"exhausted at K={ps2.Kmax}"):
        hausdorff_dimension(_FatTail(ps2))


def test_default_presentation_is_the_certified_alphabet():
    # the system and its build_presentation are one IFS to the engine
    for ell, kmax in ((2, 68), (8, 164), (20, 328)):
        assert build_presentation(build_system(solve_ell(ell))).Kmax == kmax
    for ell in (4, 20):
        sys = build_system(solve_ell(ell))
        from_ps = hausdorff_dimension(build_presentation(sys))
        from_sys = hausdorff_dimension(sys)
        assert replace(from_ps, runtime_s=0.0) == \
            replace(from_sys, runtime_s=0.0)


def test_undecayed_tail_escalates_to_kmax_before_raising(ps2, monkeypatch):
    built = []
    build = feigdim.dimension.build_pressure_model

    def counting(ifs, K, Nc, _rows):
        built.append(K)
        return build(ifs, K=K, Nc=Nc, _rows=_rows)

    monkeypatch.setattr(feigdim.dimension, "build_pressure_model", counting)
    with pytest.raises(RatioNotContracting):
        hausdorff_dimension(_UndecayedTail(ps2))
    assert built == [32, 64, ps2.Kmax]
    built.clear()
    with pytest.raises(RatioNotContracting):
        hausdorff_dimension(_UndecayedTail(ps2), K=24)
    assert built == [24]


def test_certified_row_walks_the_alphabet_once_per_grid(monkeypatch):
    # one pass over Kmax letters for the presentation's certificates and
    # tail levels, one node stream grown to K, one operator-bracket pass
    sys = build_system(solve_ell(20))
    kmax = build_presentation(sys).Kmax
    stream = feigdim.presentation.iter_letter_jets
    yielded = 0

    def counting(ps, K, x, nder=1, q=None):
        nonlocal yielded
        for jets in stream(ps, K, x, nder, q):
            yielded += 1
            yield jets

    monkeypatch.setattr(feigdim.presentation, "iter_letter_jets", counting)
    res = hausdorff_dimension(sys)
    assert res.K == 209
    assert yielded <= kmax + 2 * res.K


def test_grown_model_equals_a_fresh_one(monkeypatch, toy):
    models = []
    build = feigdim.dimension.build_pressure_model

    def keep(ifs, K, Nc, _rows):
        models.append(build(ifs, K=K, Nc=Nc, _rows=_rows))
        return models[-1]

    monkeypatch.setattr(feigdim.dimension, "build_pressure_model", keep)
    ifs = build_presentation(build_system(solve_ell(20)))
    res = hausdorff_dimension(ifs, with_bracket=False)
    assert len(models) > 1 and models[-1].K == res.K == 209
    rows = (toy.letter_jets(2, cheb_points(*toy.interval, 32), 1), [])
    build(toy, K=1, Nc=32, _rows=rows)
    pairs = [(models[-1], build(ifs, K=res.K)),
             (build(toy, K=2, Nc=32, _rows=rows), build(toy, K=2, Nc=32))]
    for grown, fresh in pairs:
        for name in ("imgs", "ders", "B"):
            assert np.array_equal(getattr(grown, name), getattr(fresh, name))
