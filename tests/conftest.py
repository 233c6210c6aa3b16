"""Shared fixtures: memoized fixed-point solves and the toy self-similar IFS."""
import numpy as np
import pytest

from feigdim.cheb import eval01
from feigdim.dimension import _bowen_root, build_pressure_model
from feigdim.fixedpoint import PERIOD_DOUBLING, solve_fixed_point
from feigdim.presentation import build_presentation
from feigdim.unimodal import build_system

_FP_CACHE = {}


def solve_ell(ell, degree=40):
    key = (ell, degree)
    if key not in _FP_CACHE:
        _FP_CACHE[key] = solve_fixed_point(PERIOD_DOUBLING, ell,
                                           degree=degree)
    return _FP_CACHE[key]


@pytest.fixture(scope="session")
def fp2():
    return solve_ell(2)


@pytest.fixture(scope="session")
def sys2(fp2):
    return build_system(fp2)


@pytest.fixture(scope="session")
def ps2(sys2):
    return build_presentation(sys2)


@pytest.fixture(scope="session")
def pm2(ps2):
    return build_pressure_model(ps2, K=40)


@pytest.fixture(scope="session")
def tstar2(pm2):
    return _bowen_root(pm2, 1e-10)


class ToyIFS:
    """Two affine maps of ratio 1/3 on [0,1]: the middle-thirds Cantor set.

    Implements the duck-typed IFS protocol the dimension engine consumes,
    and nothing else: interval, Kmax, letter_jets over the first K <= 2
    maps (with q, a series on the interval, q at each image ends the item)
    and an exact zero tail (the alphabet really is finite).
    """

    interval = (0.0, 1.0)
    Kmax = 2

    def letter_jets(self, K, x, nder=1, q=None):
        x = np.asarray(x, dtype=float)
        for a in range(K):
            val = x / 3.0 if a == 0 else x / 3.0 + 2.0 / 3.0
            jets = [val, np.full_like(x, 1.0 / 3.0)]
            while len(jets) < nder + 1:
                jets.append(np.zeros_like(x))
            if q is not None:
                jets.append(eval01(q, val))     # the interval is [0, 1]
            yield tuple(jets)

    def tail_bound(self, K, t):
        return 0.0


@pytest.fixture
def toy():
    return ToyIFS()
