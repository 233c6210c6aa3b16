import csv
import json
import os

import numpy as np
import pytest

from feigdim.dimension import (
    CSV_HEADER,
    build_pressure_model,
    conformality_residual,
    cylinder_measure,
    hausdorff_dimension,
    moran_oracle,
    pressure_eigen,
    pressure_sums,
    sweep,
    _bowen_root,
    _fit_adapted_metric,
    _sample_points,
)
import feigdim.dimension
from feigdim.errors import DomainError
from feigdim.fixedpoint import cache_filename, load_fixed_point, save_fixed_point
from feigdim.presentation import iter_letter_jets

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


def test_moran_euclid_metric_looser_but_valid(ps2, tstar2):
    br = moran_oracle(ps2, n=3, K=24, metric="euclid")
    assert br.t_lo <= tstar2 <= br.t_hi
    assert br.width >= moran_oracle(ps2, n=3, K=24).width
    assert br.delta_q == 0.0


def test_pressure_sums_sandwich(pm2, tstar2):
    lo2, up2 = pressure_sums(pm2, tstar2, 2)
    lo3, up3 = pressure_sums(pm2, tstar2, 3)
    assert lo2 < 0.0 < up2
    assert lo3 < 0.0 < up3
    assert lo2 <= lo3 <= up3 <= up2
    with pytest.raises(DomainError):
        pressure_sums(pm2, tstar2, 7)


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
    report = sweep([2, 4], root_tol=1e-8)
    assert not report.failures
    assert [row["ell"] for row in report.rows] == [2, 4]
    assert abs(report.rows[0]["hd"] - HD_2) < 1e-6
    assert report.rows[1]["hd"] > report.rows[0]["hd"]
    for row in report.rows:
        assert row["hd_lo"] <= row["hd"] <= row["hd_hi"]
        assert abs(row["tau"] - abs(row["alpha"]) ** row["ell"]) < 1e-9
    diag = report.diagnostics()
    assert diag["delta_hd"][0] > 0.0
    path = str(tmp_path / "sweep.csv")
    report.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_HEADER
    assert len(rows) == 2
    assert abs(float(rows[0]["hd"]) - report.rows[0]["hd"]) < 1e-11


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
    assert load_fixed_point(path).combinatorics.p == 2


def test_adapted_metric_fit_matches_svd_lstsq(ps2, monkeypatch):
    xs = _sample_points(ps2.interval, 9)
    jets = [jets for _, jets in iter_letter_jets(ps2, ps2.Kmax, xs)]
    vals = np.stack([val for val, _ in jets])
    lds = np.log(np.abs(np.stack([der for _, der in jets])))
    got = _fit_adapted_metric(ps2.interval, xs, vals, lds).qvals
    monkeypatch.setattr(feigdim.dimension, "lstsq",
                        lambda a, b, **kw: np.linalg.lstsq(a, b, rcond=None))
    want = _fit_adapted_metric(ps2.interval, xs, vals, lds).qvals
    assert float(np.max(np.abs(got - want))) <= 1e-10
