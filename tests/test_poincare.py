import csv

import numpy as np
import pytest

from feigdim.errors import DomainError
from feigdim.fixedpoint import write_csv
from feigdim.poincare import (
    CLAIM2_HEADER,
    DOMINANCE_HEADER,
    claim2_scan,
    dominance_table,
)
from feigdim.unimodal import build_system

from conftest import solve_ell

LAM_2 = 0.15962844038


def test_dominance_table(sys2):
    sys4 = build_system(solve_ell(4))
    rows = dominance_table([sys2, sys4])
    assert [row["ell"] for row in rows] == [2, 4]
    row2 = rows[0]
    assert abs(row2["lambda"] - LAM_2) < 1e-9
    assert abs(row2["dominance_ratio"] -
               abs(row2["b"]) / abs(row2["lambda"] - 1.0)) < 1e-15
    assert abs(row2["dominance_ratio"] - 0.0178169) < 1e-6
    assert rows[1]["dominance_ratio"] > row2["dominance_ratio"]


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
    path = str(tmp_path / "dominance.csv")
    write_csv(path, DOMINANCE_HEADER, dominance_table([sys2, sys4]))
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
    write_csv(path, CLAIM2_HEADER, rows)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    assert abs(float(back[1]["M"]) - rows[1]["M"]) < 1e-10
    assert int(back[0]["i_max"]) == 100_000
