"""Independent numerical oracles, free of any feigdim import.

The cascade oracle reproduces the period-doubling rescaling constant from
the plain quadratic family x^2 + c, so agreement with the collocation
solver cross-validates the whole fixed-point pipeline. psi_alt inverts a
presentation's letters by plain bisection on its E, independent of the
package's bisection-Newton solver and of its G-iteration;
letter_stream_on_E steps G on E's full series, where the package steps
it on G's own short series. gauss_bary_weights gives scipy's barycentric
interpolator the exact weights of the Chebyshev-Gauss nodes. GaussE2
and AffineGeometric are IFSs of known dimension with the engine's IFS
protocol, reading a series q on their interval with numpy's chebval.
"""
import numpy as np
from numpy.polynomial.chebyshev import chebval


def _crit_iterate(c, n):
    x = 0.0
    for _ in range(n):
        x = x * x + c
    return x


def superstable_params(n_max):
    """Parameters c_n of x^2 + c where the critical point has period 2^n."""
    cs = [0.0, -1.0]
    for n in range(2, n_max + 1):
        gap = cs[-1] - cs[-2]
        lo = cs[-1] + 0.45 * gap
        hi = cs[-1] + 0.02 * gap
        period = 2 ** n
        flo = _crit_iterate(lo, period)
        fhi = _crit_iterate(hi, period)
        if flo * fhi >= 0:
            raise RuntimeError(f"superstable bracket lost at level {n}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = _crit_iterate(mid, period)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi, fhi = mid, fm
            if hi - lo < 1e-15 * abs(mid):
                break
        cs.append(0.5 * (lo + hi))
    return cs


def quadratic_cascade_alpha(n_max=13):
    """Rescaling constant from closest-return ratios, Aitken extrapolated.

    d_n is the closest return of the critical orbit at the superstable
    parameter c_n; d_n / d_{n+1} converges to alpha (negative for the
    orientation-reversing quadratic cascade).
    """
    cs = superstable_params(n_max)
    ds = [_crit_iterate(cs[n], 2 ** (n - 1)) for n in range(1, len(cs))]
    r = np.array([ds[i] / ds[i + 1] for i in range(len(ds) - 1)])
    dr = np.diff(r)
    aitken = r[2:] - dr[1:] ** 2 / (dr[1:] - dr[:-1])
    return float(aitken[-1])


def gauss_bary_weights(n):
    """Barycentric weights (-1)^k sin((2k + 1) pi / (2n)) of the n
    Chebyshev-Gauss nodes cos((2k + 1) pi / (2n)) of any interval, in
    their descending order. Passed as wi, they keep scipy's
    BarycentricInterpolator from computing weights on a random node
    permutation, whose roundoff differs from run to run."""
    k = np.arange(n)
    return (-1.0) ** k * np.sin((2 * k + 1) * np.pi / (2 * n))


def fd_derivative(f, x, order=1, h=1e-5):
    """Central finite-difference derivative of a scalar callable."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / h ** 2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h)
                - f(x - 2 * h)) / (2.0 * h ** 3)
    if order == 4:
        return (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h)
                + f(x - 2 * h)) / h ** 4
    raise ValueError(f"order {order} not supported")


def bisect_decreasing(f, targets, lo, hi, steps):
    """Solve f(z) = target on [lo, hi] for each target, f decreasing and
    vectorized: the midpoint of the bracket after `steps` bisections."""
    a = np.full(np.shape(targets), lo)
    b = np.full(np.shape(targets), hi)
    for _ in range(steps):
        mid = 0.5 * (a + b)
        high = f(mid) > targets
        a = np.where(high, mid, a)
        b = np.where(high, b, mid)
    return 0.5 * (a + b)


def psi_alt(ps, k, x, deriv=0):
    """psi_k = H^{-1} o tau^{-k} of a built presentation ps, or its
    derivative.

    E = ps.sys.fp.E decreases on [0, 1], positive on [0, x_c] and negative
    on [x_c, 1], so on the lap that ps.branch_side[k - 1] names (+1 the
    left, -1 the right) H(z) = u reads E(z) = side * u^(1/ell), solved by
    64 bisection steps. Well conditioned only while the cylinder is far
    from x_c (small k).
    """
    sys = ps.sys
    E, ell, x_c = sys.fp.E, sys.fp.ell, sys.x_c
    u = np.asarray(x, dtype=float) / sys.tau ** k
    side = ps.branch_side[k - 1]
    lap = (0.0, x_c) if side > 0 else (x_c, 1.0)
    z = bisect_decreasing(E, side * u ** (1.0 / ell), *lap, 64)
    if deriv == 0:
        return z
    # H' = ell E^(ell - 1) E'
    return 1.0 / (sys.tau ** k * ell * E(z) ** (ell - 1) * E(z, 1))


def letter_stream_on_E(ps, K, x):
    """[(psi_k(x), psi_k'(x)) for k = 1..K] of a built presentation ps,
    with every step on E's full series: the branch H^{-1} by 64 bisection
    steps of E(z) = x^(1/ell) on [0, x_c], and each G-step
    G(y) = E(y/tau)^ell, G'(y) = ell E^(ell - 1) E'(y/tau) / tau from one
    ps.sys.fp.jets call.
    """
    sys = ps.sys
    fp, ell, tau = sys.fp, sys.fp.ell, sys.tau
    x = np.asarray(x, dtype=float)
    z = bisect_decreasing(fp.E, x ** (1.0 / ell), 0.0, sys.x_c, 64)
    e, e1 = fp.jets(z, 1)
    y, dy = z, 1.0 / (ell * e ** (ell - 1) * e1)
    out = []
    for _ in range(K):
        e, e1 = fp.jets(y / tau, 1)
        y, dy = e ** ell, ell * e ** (ell - 1) * e1 / tau * dy
        out.append((y, dy))
    return out


# Reference constants for the quadratic (ell = 2) fixed point.
ALPHA_2 = -2.5029078750958928
HD_2 = 0.53804514358


class _SeriesReader:
    """The IFS protocol's letter_jets over a per-letter jet function: item
    a ends with q(psi_a x) for a series q on the interval, or a stack of
    them as columns, as chebval reads q at s = 2u - 1 (shape (columns,
    points) for a stack)."""

    def letter_jets(self, K, x, nder=1, q=None):
        x = np.asarray(x, dtype=float)
        lo, hi = self.interval
        for a in range(1, K + 1):
            jets = self._jets(a, x, nder)
            if q is not None:
                jets.append(chebval(2.0 * (jets[0] - lo) / (hi - lo) - 1.0,
                                    np.asarray(q)))
            yield tuple(jets)


class GaussE2(_SeriesReader):
    """E_2 = {1 / (1 + x), 1 / (2 + x)} on [1/3, 1], the continued
    fractions with digits 1 and 2: a finite alphabet, so a zero tail. Its
    dimension is 0.5312805062772051416... (Jenkinson and Pollicott,
    Adv. Math. 325 (2018))."""

    interval = (1.0 / 3.0, 1.0)
    Kmax = 2
    DIMENSION = 0.5312805062772051416

    def _jets(self, a, x, nder):
        # d^n/dx^n (a + x)^-1 = (-1)^n n! (a + x)^-(n + 1)
        y = 1.0 / (a + x)
        jets, fact = [y], 1.0
        for n in range(1, nder + 1):
            fact *= -n
            jets.append(fact * y ** (n + 1))
        return jets

    def tail_bound(self, K, t):
        return 0.0


class AffineGeometric(_SeriesReader):
    """psi_k(x) = 1 - b^(k - 1) + a b^k x on [0, 1], k = 1..Kmax: ratios
    r_k = a b^k, image k inside [1 - b^(k - 1), 1 - b^k], disjoint as
    a b < 1 - b. Letters beyond K weigh exactly
    sum_{k > K} r_k^t = (a b^(K + 1))^t / (1 - b^t), and the dimension of
    the infinite system is the root of (a b)^t = 1 - b^t."""

    interval = (0.0, 1.0)

    def __init__(self, a=0.5, b=0.6, Kmax=64):
        if not 0.0 < b < 1.0 or not 0.0 < a * b < 1.0 - b:
            raise ValueError(f"images overlap or leave I: a={a}, b={b}")
        self.a, self.b, self.Kmax = a, b, Kmax

    def _jets(self, k, x, nder):
        r = self.a * self.b ** k
        return [1.0 - self.b ** (k - 1) + r * x, np.full_like(x, r),
                *(np.zeros_like(x) for _ in range(nder - 1))]

    def tail_bound(self, K, t):
        return (self.a * self.b ** (K + 1)) ** t / (1.0 - self.b ** t)

    def dimension(self):
        """The root of (a b)^t = 1 - b^t, by bisection on (0, 1]."""
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (self.a * self.b) ** mid > 1.0 - self.b ** mid:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
