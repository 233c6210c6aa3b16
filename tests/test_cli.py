import hashlib
import json
import os

import pytest

import feigdim.fixedpoint
from feigdim.cli import main
from feigdim.dimension import CSV_HEADER
from feigdim.fixedpoint import cache_filename, save_fixed_point

from conftest import solve_ell
from oracles import HD_2


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv("FEIGDIM_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    for ell in (2, 4):
        fp = solve_ell(ell)
        save_fixed_point(fp, str(cache / cache_filename((2, ell, 40))))
    return str(cache)


def _read_manifest(path):
    with open(f"{path}.manifest.json") as fh:
        return json.load(fh)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("feigdim ")


def test_solve_populates_cache_and_manifest(tmp_path, capsys):
    cache = tmp_path / "c"
    rc = main(["solve", "--ell", "2", "--cache", str(cache)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solved" in out and "alpha=-2.5029078751" in out
    fp_path = cache / "fp_p2_l2_d40.json"
    assert fp_path.exists()
    manifest = _read_manifest(str(fp_path))
    assert manifest["tool"] == "feigdim"
    assert manifest["command"] == "solve"
    assert manifest["config"]["ells"] == [2]
    assert manifest["output"]["path"] == "fp_p2_l2_d40.json"
    digest = hashlib.sha256(fp_path.read_bytes()).hexdigest()
    assert manifest["output"]["sha256"] == digest
    assert manifest["output"]["bytes"] == fp_path.stat().st_size
    assert set(manifest["versions"]) == {"feigdim", "python", "numpy", "scipy"}

    rc = main(["solve", "--ell", "2", "--cache", str(cache)])
    assert rc == 0
    assert "cached" in capsys.readouterr().out


def test_dim_prints_csv(warm_cache, tmp_path, capsys):
    out_path = tmp_path / "dim.csv"
    rc = main(["dim", "--ell", "2", "--cache", warm_cache,
               "--out", str(out_path)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    cells = lines[1].split(",")
    assert int(cells[0]) == 2
    assert abs(float(cells[1]) - HD_2) < 1e-6
    assert float(cells[2]) <= float(cells[1]) <= float(cells[3])
    file_lines = out_path.read_text().strip().splitlines()
    assert file_lines[0] == lines[0]
    assert file_lines[1] == lines[1]
    manifest = _read_manifest(str(out_path))
    assert manifest["command"] == "dim"


def test_dim_is_deterministic(warm_cache, capsys):
    rows = []
    for _ in range(2):
        assert main(["dim", "--ell", "2", "--cache", warm_cache]) == 0
        rows.append(capsys.readouterr().out.strip().splitlines()[1])
    # identical up to the runtime column
    assert rows[0].rsplit(",", 1)[0] == rows[1].rsplit(",", 1)[0]


def test_env_cache_overrides_flag(tmp_path, capsys):
    env_cache = tmp_path / "env"
    flag_cache = tmp_path / "flag"
    os.environ["FEIGDIM_CACHE"] = str(env_cache)
    try:
        rc = main(["solve", "--ell", "2", "--cache", str(flag_cache)])
    finally:
        del os.environ["FEIGDIM_CACHE"]
    assert rc == 0
    assert (env_cache / "fp_p2_l2_d40.json").exists()
    assert not flag_cache.exists()


def test_default_cache_dir(tmp_path, capsys):
    rc = main(["solve", "--ell", "2"])
    assert rc == 0
    assert (tmp_path / ".feigdim-cache" / "fp_p2_l2_d40.json").exists()


@pytest.mark.parametrize("argv", [
    [],
    ["dim"],
    ["dim", "--ell", "3"],
    ["dim", "--ells", "2:2:4"],
    ["solve", "--ell", "-2"],
    ["sweep", "--ell", "2"],
    ["sweep", "--ells", "2"],
    ["sweep", "--ells", "4:2:2"],
    ["sweep", "--ells", "3:2:7"],
    ["diagnose", "--ells", "2:2:2"],
    ["frobnicate"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, capsys):
    rc = main(["solve", "--ell", "2", "--tol", "1e-30",
               "--cache", str(tmp_path / "fresh")])
    assert rc == 2
    assert "NoConvergence" in capsys.readouterr().err


def test_sweep_writes_default_csv(warm_cache, tmp_path, capsys):
    rc = main(["sweep", "--ells", "2:2:4", "--cache", warm_cache])
    assert rc == 0
    assert "wrote 2 rows to sweep.csv" in capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    assert _read_manifest(str(tmp_path / "sweep.csv"))["command"] == "sweep"
    hd2, hd4 = (float(line.split(",")[1]) for line in lines[1:])
    assert hd4 > hd2


def test_diagnose_writes_tables(warm_cache, tmp_path, capsys):
    out_dir = tmp_path / "diag"
    rc = main(["diagnose", "--ells", "2:2:4", "--cache", warm_cache,
               "--out", str(out_dir)])
    assert rc == 0
    dom = (out_dir / "dominance.csv").read_text().strip().splitlines()
    assert dom[0] == "ell,lambda,b,a,N,dominance_ratio"
    assert len(dom) == 3
    c2 = (out_dir / "claim2.csv").read_text().strip().splitlines()
    assert c2[0] == "p,sigma,w0,i_max,M"
    assert len(c2) == 5
    assert (out_dir / "dominance.csv.manifest.json").exists()
    assert (out_dir / "claim2.csv.manifest.json").exists()


def test_seed_file_accepted(warm_cache, tmp_path, capsys):
    seed = os.path.join(warm_cache, "fp_p2_l4_d40.json")
    rc = main(["solve", "--ell", "4", "--cache", str(tmp_path / "s"),
               "--seed-file", seed])
    assert rc == 0
    assert "solved" in capsys.readouterr().out


def test_solve_range_continues_each_ell_from_the_previous(tmp_path,
                                                          monkeypatch, capsys):
    ref = tmp_path / "ref"
    ref.mkdir()
    for ell in (2, 4, 6):
        save_fixed_point(solve_ell(ell), str(ref))
    real = feigdim.fixedpoint.solve_fixed_point
    solved = []

    def counting(combinatorics, ell, *args, **kwargs):
        solved.append(ell)
        return real(combinatorics, ell, *args, **kwargs)

    monkeypatch.setattr(feigdim.fixedpoint, "solve_fixed_point", counting)
    cache = tmp_path / "c"
    assert main(["solve", "--ells", "2:2:6", "--cache", str(cache)]) == 0
    assert solved == [2, 4, 6]
    for ell in (2, 4, 6):
        name = cache_filename((2, ell, 40))
        assert (cache / name).read_bytes() == (ref / name).read_bytes()


def test_dim_over_torn_cache_warns_and_resolves(tmp_path, capsys):
    cache = tmp_path / "c"
    cache.mkdir()
    (cache / cache_filename((2, 2, 40))).write_text("{ torn")
    with pytest.warns(UserWarning, match="rejected"):
        rc = main(["dim", "--ell", "2", "--cache", str(cache)])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert abs(float(row[1]) - HD_2) < 1e-6
