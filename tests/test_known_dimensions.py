"""The engine on IFSs whose dimension is known in closed form or to many
digits, through the IFS protocol alone (tests/oracles.py)."""
import pytest

from feigdim.dimension import hausdorff_dimension

from oracles import AffineGeometric, GaussE2


@pytest.mark.parametrize("Nc", [16, 32, 48])
def test_e2_bracket_holds_its_known_dimension(Nc):
    e2 = GaussE2()
    res = hausdorff_dimension(e2, Nc=Nc, root_tol=1e-14)
    assert res.K == 2 and res.tail_t == 0.0
    assert res.hd_lo <= e2.DIMENSION <= res.hd_hi
    assert abs(res.hd - e2.DIMENSION) <= 1e-12


def test_affine_bracket_covers_the_dropped_letters():
    # the tail decays by b^t per letter, so K escalates from 32 until the
    # tail at the root is under 1e-8; the truncated root sits below the
    # infinite system's, which only the bracket's tail term lifts the
    # upper bound over, pinned K = 20 too
    ifs = AffineGeometric()
    dim = ifs.dimension()
    res = hausdorff_dimension(ifs)
    assert 32 < res.K < ifs.Kmax and res.tail_t < 1e-8
    for row in (res, hausdorff_dimension(ifs, K=20)):
        assert row.hd < dim
        assert row.hd_lo <= dim <= row.hd_hi
        assert row.hd_hi - dim <= 1e-12
