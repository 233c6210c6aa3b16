import csv
import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebvander
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
    _OperatorBounds,
    _bowen_root,
    _eigenfunction,
    _fit_adapted_metric,
    _sample_points,
    _word_tables,
)
import feigdim.dimension
import feigdim.presentation
from feigdim.cheb import cheb_points, eval01
from feigdim.errors import (
    DomainError,
    EigenvectorSignFailure,
    RatioNotContracting,
    TailTooFat,
)
from feigdim.fixedpoint import cache_filename, load_fixed_point, save_fixed_point
from feigdim.presentation import build_presentation
from feigdim.unimodal import build_system

from conftest import solve_ell
from oracles import HD_2

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
        cardinal = interpolator.BarycentricInterpolator(nodes, np.eye(Nc))
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
    with pytest.raises(DomainError):
        moran_oracle(ps2, n=2, metric="adaptive")


def test_moran_euclid_metric_looser_but_valid(ps2, tstar2):
    br = moran_oracle(ps2, n=3, K=24, metric="euclid")
    assert br.t_lo <= tstar2 <= br.t_hi
    assert br.width >= moran_oracle(ps2, n=3, K=24).width
    assert br.delta_q == 0.0


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
    idx = {w: i for i, w in enumerate(cm2.words)}
    letters = pm2.ifs.letters(pm2.K)
    for i, w in enumerate(cm1.words):
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
    jets = [jets for _, jets in ps.letter_jets(K, xs, 1)]
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
    cardinal = interpolator.BarycentricInterpolator(qnodes, np.eye(nq))
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
                 for _, (val, der) in ifs.letter_jets(K, pos, 1)]
        pos = np.concatenate([val for val, _ in steps])
        ld = np.concatenate([step for _, step in steps])
    return ld.max(axis=1), ld.min(axis=1)


@pytest.mark.parametrize("metric", ["adapted", "euclid"])
def test_word_tables_add_the_metric_once(metric, ps2, toy):
    # q telescopes along a word: added once after the walk, it matches the
    # per-level sums word for word
    for ifs, K, n in ((ps2, 24, 3), (toy, 2, 4)):
        xs = _sample_points(ifs.interval, 9)
        vals, lds = _metric_samples(ifs, xs, K)
        q = (_fit_adapted_metric(ifs.interval, xs, vals, lds)[0]
             if metric == "adapted" else np.zeros(1))
        sup, inf, _, _ = _word_tables(ifs, K, n, metric)
        want_sup, want_inf = _per_level_word_tables(ifs, K, n, q)
        assert sup.shape == want_sup.shape == (K ** n,)
        assert np.max(np.abs(sup - want_sup)) <= 1e-13
        assert np.max(np.abs(inf - want_inf)) <= 1e-13


def test_moran_bracket_of_the_toy_is_exact(toy):
    br = moran_oracle(toy, n=3)
    assert br.t_lo - 1e-12 <= T_CANTOR <= br.t_hi + 1e-12
    assert br.t_hi - br.t_lo <= 1e-12
    assert br.K == 2


def _conformality_by_word_index(pm, t_star, depth):
    """conformality_residual as a dict from words to rows, tuple by tuple."""
    fine = cylinder_measure(pm, t_star, depth)
    letters = pm.ifs.letters(pm.K)
    na = len(letters)
    index = {w: n for n, w in enumerate(fine.words)}
    prefixes = [w[1:] for w in fine.words[: na ** (depth - 1)]]
    idx_app = np.array([[index[u + (j,)] for j in letters] for u in prefixes])
    raw = fine.mu * fine.raw_mass
    worst = 0.0
    for i, (_, d1, d2, d3) in pm.ifs.letter_jets(pm.K, fine.xbar, 3):
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


def test_operator_bracket_holds_for_any_positive_test_function(pm2, tstar2):
    # The certificate may not lean on the collocation being right: a flat
    # h and a wobbled eigenvector give wider brackets that still hold.
    eigen = _eigenfunction(pm2, tstar2)
    lo, hi = pm2.ifs.interval
    k = 2.0 * np.pi / (hi - lo)

    def wobbled(x):
        h, dh = eigen(x)
        s = 1.0 + 0.1 * np.sin(k * (x - lo))
        return h * s, dh * s + h * 0.1 * k * np.cos(k * (x - lo))

    def flat(x):
        return np.ones_like(x), np.zeros_like(x)

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


def test_operator_bracket_rejects_sign_changing_test_function(pm2):
    mid = 0.5 * sum(pm2.ifs.interval)
    with pytest.raises(EigenvectorSignFailure):
        _OperatorBounds(pm2.ifs, pm2.K, lambda x: (x - mid, np.ones_like(x)))


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
        self.ps, self.interval, self.Kmax = ps, ps.interval, ps.Kmax

    def letters(self, K):
        return self.ps.letters(K)

    def letter_jets(self, K, x, nder=1):
        return self.ps.letter_jets(K, x, nder)

    def tail_bound(self, K, t):
        raise RatioNotContracting(f"levels not decaying at K={K}")


class _FatTail(_UndecayedTail):
    """A presentation whose tail never falls below the budget."""

    def tail_bound(self, K, t):
        return 1.0


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
    yielded = []

    def counting(ps, K, x, nder=1):
        for item in stream(ps, K, x, nder):
            yielded.append(item[0])
            yield item

    monkeypatch.setattr(feigdim.presentation, "iter_letter_jets", counting)
    res = hausdorff_dimension(sys)
    assert res.K == 209
    assert len(yielded) <= kmax + 2 * res.K


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
