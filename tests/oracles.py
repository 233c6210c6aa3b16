"""Independent numerical oracles, free of any feigdim import.

The cascade oracle reproduces the period-doubling rescaling constant from
the plain quadratic family x^2 + c, so agreement with the collocation
solver cross-validates the whole fixed-point pipeline. psi_alt inverts a
presentation's letters by plain bisection on its E, independent of the
package's bisection-Newton solver and of its G-iteration;
letter_stream_on_E steps G on E's full series, where the package steps
it on G's own short series.
"""
import numpy as np


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
