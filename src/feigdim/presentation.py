"""The infinite presentation IFS {psi_k = G^k o H^{-1}} on I = [c_2, c_4].

Period doubling has one inverse branch H^{-1}, so a letter is its depth
k = 1..Kmax: a countable conformal IFS indexed by k alone.
PresentationSystem implements the IFS protocol of the dimension engine
(interval, Kmax, letters, letter_jets, tail_bound); its letter_jets is
iter_letter_jets, the one stream of jets over the alphabet, and a single
letter's jets are that stream's k-th item.

The branch H^{-1} maps I onto [0, 1/tau]: a bisection-Newton solve of
e(w) = x^(1/ell) on G's series e(w) = E(w/tau), with z = w/tau. G^k is k
explicit contraction steps on the same series, numerically stable for
every k because the cylinders accumulate at the attracting fixed point
x_c of G. The alternative composition form
psi_k = H^{-1} o tau^{-k}, well conditioned only for shallow k, is the
test suite's independent reference (tests/oracles.py).
"""
from dataclasses import dataclass, replace

import numpy as np

from . import cheb
from .errors import (
    BranchNotMonotone,
    DomainError,
    IndexOutOfAlphabet,
    InvariantViolation,
    NoContraction,
    RatioNotContracting,
)
from .fixedpoint import write_csv
from .unimodal import DEFAULT_ORBIT_MAX, _G_jets, critical_orbit, eval_H

_X_SLACK = 1e-9
_W_PAD = 2.0 ** -10
_TAIL_NX = 64
_CERT_NX = 200
_NBIS = 8
_NNEWT = 4


@dataclass(frozen=True, eq=False)
class PresentationSystem:
    """Built presentation IFS with cylinder table and contraction data.

    tail_levels[k - 1] is sup |Dpsi_k| on a 64-point grid of I (read-only).
    """

    sys: object
    I: tuple
    orbit: np.ndarray
    Kmax: int
    J: tuple
    lambda_rho: float
    cylinders: np.ndarray
    branch_side: np.ndarray
    k_verify: int
    tail_levels: np.ndarray

    @property
    def interval(self):
        return self.I

    def letters(self, K):
        _check_letter(self, K)
        return list(range(1, K + 1))

    def letter_jets(self, K, x, nder=1):
        return iter_letter_jets(self, K, x, nder)

    def tail_bound(self, K, t):
        return tail_bound(self, K, t)


def _check_letter(ps, k):
    """A letter, or a truncation K, is a depth in 1..Kmax."""
    if not 1 <= k <= ps.Kmax:
        raise IndexOutOfAlphabet(f"{k} is not a letter of 1..{ps.Kmax}")


def _solve_e_decreasing(sys, targets):
    """Solve e(w) = target on G's series, decreasing and positive on
    [-_W_PAD, 1 + _W_PAD]: the pad holds the roots for all of I widened by
    _X_SLACK (within 1e-8 of [0, 1]), so no x psi accepts is clipped.

    A few bisection steps shrink that to a bracket [a, b] of the root, then
    Newton polishes the midpoint, each iterate clipped to [a, b].
    """
    values, jets = sys.g_tables[0][:, 0], sys.g_tables[1]
    targets = np.asarray(targets, dtype=float)
    a = np.full(targets.shape, -_W_PAD)
    b = np.full(targets.shape, 1.0 + _W_PAD)
    for _ in range(_NBIS):
        mid = 0.5 * (a + b)
        high = cheb.eval01(values, mid) > targets
        a = np.where(high, mid, a)
        b = np.where(high, b, mid)
    w = 0.5 * (a + b)
    for _ in range(_NNEWT):
        e, e1 = cheb.eval01(jets, w)
        w = np.clip(w - (e - targets) / e1, a, b)
    return w


def _h_inverse_jets(sys, x, nder):
    """Jets of the branch H^{-1} on I.

    The branch maps I onto [c_1, c_3] = [0, 1/tau], left of x_c where
    E > 0: z = w/tau for e(w) = x^(1/ell), and H^(j)(z) = tau^j G^(j)(w).
    """
    tau = sys.tau
    w = _solve_e_decreasing(sys, x ** (1.0 / sys.ell))
    if nder == 0:
        return (w / tau,)
    jets = _G_jets(sys, w, min(nder, 3))
    h1 = tau * jets[1]
    out = [w / tau, 1.0 / h1]
    if nder >= 2:
        h2 = tau ** 2 * jets[2]
        out.append(-h2 * out[1] ** 3)
    if nder >= 3:
        h3 = tau ** 3 * jets[3]
        out.append((3.0 * h2 ** 2 - h1 * h3) * out[1] ** 5)
    return tuple(out)


def _g_step_jets(sys, jets, nder):
    """Push jets of a map through one application of G."""
    y = jets[0]
    g = _G_jets(sys, y, min(nder, 3))
    out = [g[0]]
    if nder >= 1:
        out.append(g[1] * jets[1])
    if nder >= 2:
        out.append(g[2] * jets[1] ** 2 + g[1] * jets[2])
    if nder >= 3:
        out.append(g[3] * jets[1] ** 3 + 3.0 * g[2] * jets[1] * jets[2]
                   + g[1] * jets[3])
    return tuple(out)


def iter_letter_jets(ps, K, x, nder=1):
    """Yield (k, jets) for k = 1..K, sharing the G-iteration.

    The only whole-alphabet jet path: one branch inversion and K
    contraction steps cover the alphabet, and callers that stream the
    letters keep memory at a single jet tuple.
    """
    _check_letter(ps, K)
    x = np.asarray(x, dtype=float)
    jets = _h_inverse_jets(ps.sys, x, nder)
    for k in range(1, K + 1):
        jets = _g_step_jets(ps.sys, jets, nder)
        yield k, jets


def _psi_jets(ps, k, x, nder):
    """Jets of the single letter psi_k: the k-th item of iter_letter_jets."""
    for _, jets in iter_letter_jets(ps, k, x, nder):
        pass
    return jets


def psi(ps, k, x, deriv=0):
    """psi_k(x) or its first derivative, x in I."""
    if deriv not in (0, 1):
        raise DomainError(f"deriv must be 0 or 1, got {deriv}")
    lo, hi = ps.I
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((lo - _X_SLACK <= x_arr) & (x_arr <= hi + _X_SLACK)):
        raise DomainError(f"psi argument outside I = [{lo}, {hi}]")
    jets = _psi_jets(ps, k, x_arr, deriv)
    out = jets[deriv]
    return float(out[0]) if np.ndim(x) == 0 else out


def build_presentation(sys, j_margin=0.2):
    """Construct the certified presentation system and verify its invariants.

    Kmax = min(400, ceil(44 / |ln lam~|) + 20) letters, lam~ = tau^(-1/ell)
    = |G'(x_c)|: 68 at ell = 2, 164 at ell = 8, 328 at ell = 20 and 400 from
    ell = 26; a consumer that wants fewer letters passes its own K. Letter k
    has cylinder endpoints c_{2^k} and c_{3*2^k}: endpoint identities are
    checked for every k whose orbit indexes fit the DEFAULT_ORBIT_MAX table
    and whose entries sit below the table's measured roundoff floor.

    The alphabet is walked once per grid: three scalar G-orbits give the
    cylinder table, and one iter_letter_jets pass gives tail_levels and the
    contraction certificate lambda_rho of the one J, I widened by j_margin
    times its width on each side; NoContraction when lambda_rho >= 1.
    """
    if not 0.0 < j_margin < np.inf:
        raise DomainError(f"j_margin must be finite and > 0, got {j_margin}")
    lam_tilde = sys.tau ** (-1.0 / sys.ell)
    Kmax = min(400, int(np.ceil(44.0 / abs(np.log(lam_tilde)))) + 20)

    orbit = critical_orbit(sys, DEFAULT_ORBIT_MAX)

    lo, hi = sorted((orbit[2], orbit[4]))
    I = (float(lo), float(hi))

    dH = eval_H(sys, np.linspace(*sorted((orbit[1], orbit[3])), 257), 1)
    if dH.max() * dH.min() <= 0.0:
        raise BranchNotMonotone("H not monotone on the branch lap [c_1, c_3]")

    k_fit = (DEFAULT_ORBIT_MAX // 4).bit_length() - 1     # 10 < Kmax

    # Deep orbit entries accumulate roundoff (worse for large ell), so the
    # endpoint identity is only certifiable as far as the table's own noise
    # floor allows. The doubling defect |G(c_j) - c_{2j}| probes that floor
    # at index 2j; verification depth stops where it nears the tolerance.
    half = np.arange(1, DEFAULT_ORBIT_MAX // 2)
    doubled = _G_jets(sys, orbit[half], 0)[0]
    defect = np.abs(doubled - orbit[2 * half])
    k_verify = 0
    while k_verify < k_fit and defect[:2 ** (k_verify + 2)].max() < 0.25e-8:
        k_verify += 1
    if k_verify == 0:
        raise InvariantViolation(
            f"orbit doubling defect {defect[:4].max():.2e} already "
            "exceeds the endpoint tolerance at k=1"
        )

    # the ends of I and its midpoint as plain floats; a step e(v)^ell by
    # cheb.clenshaw and np.power has the bits of the array step
    e, ell = sys.g_tables[0][:, 0].tolist(), sys.ell
    y = _h_inverse_jets(sys, np.array([*I, sum(I) / 2]), 0)[0].tolist()
    walk = np.empty((Kmax, 3))
    for k in range(Kmax):
        walk[k] = y = [float(np.power(cheb.clenshaw(e, 2.0 * v - 1.0), ell))
                       for v in y]
    cylinders, mid = np.sort(walk[:, :2], axis=1), walk[:, 2]
    # G' < 0 at x_c: sides alternate, checked where midpoints leave x_c
    sides = (1 if mid[0] < sys.x_c else -1) * (-1) ** np.arange(Kmax)
    clash = (np.abs(mid - sys.x_c) > 1e-12) & ((mid < sys.x_c) != (sides > 0))
    if np.any(clash):
        raise InvariantViolation(
            f"letter {np.argmax(clash) + 1} breaks the alternation of sides")

    for k in range(1, k_verify + 1):
        want = sorted((orbit[2 ** k], orbit[3 * 2 ** k]))
        err = float(np.max(np.abs(cylinders[k - 1] - want)))
        if err >= 1e-8:
            raise InvariantViolation(
                f"cylinder endpoints for k={k} off by {err:.2e}")

    if np.any(cylinders[:, 0] < I[0] - 1e-12) or \
            np.any(cylinders[:, 1] > I[1] + 1e-12):
        raise InvariantViolation("a cylinder leaves I")
    order = np.argsort(cylinders[:, 0])
    gaps = cylinders[order[1:], 0] - cylinders[order[:-1], 1]
    if np.any(gaps < -1e-12):
        raise InvariantViolation("cylinders overlap beyond the 1e-12 slack")

    width = I[1] - I[0]
    J = (I[0] - j_margin * width, I[1] + j_margin * width)
    ps = PresentationSystem(sys, I, orbit, Kmax, J, lambda_rho=1.0,
                            cylinders=cylinders, branch_side=sides,
                            k_verify=k_verify, tail_levels=None)
    x = np.concatenate([np.linspace(*I, _CERT_NX), np.linspace(*I, _TAIL_NX)])
    rho_x = _rho_density(J, x[:_CERT_NX])
    worst, levels = 0.0, np.empty(Kmax)
    for k, (val, der) in iter_letter_jets(ps, Kmax, x):
        ratio = _contraction_ratio(J, rho_x, val[:_CERT_NX], der[:_CERT_NX])
        worst = np.maximum(worst, ratio.max())     # NaN propagates
        levels[k - 1] = np.max(np.abs(der[_CERT_NX:]))
    if not worst < 1.0:
        raise NoContraction(
            f"lambda_rho = {worst:.6g} >= 1 at J margin {j_margin}")
    levels.flags.writeable = False
    return replace(ps, lambda_rho=float(worst), tail_levels=levels)


def _rho_density(J, x):
    """Hyperbolic density (up to a constant) of the disk with diameter J."""
    A, B = J
    return 1.0 / ((x - A) * (B - x))


def _contraction_ratio(J, rho_x, val, der):
    """|psi'(x)| rho(psi x) / rho(x), from the letter's jets at x."""
    return np.abs(der) * _rho_density(J, val) / rho_x


def contraction_certificate(ps):
    """sup over the alphabet and x in I of |psi'(x)| rho(psi x)/rho(x),
    rho being the hyperbolic density of the disk with diameter ps.J."""
    x = np.linspace(*ps.I, _CERT_NX)
    rho_x = _rho_density(ps.J, x)
    worst = 0.0
    for _, (val, der) in iter_letter_jets(ps, ps.Kmax, x):
        worst = max(worst,
                    float(_contraction_ratio(ps.J, rho_x, val, der).max()))
    return worst


def word_map(ps, w, x):
    """phi_w = psi_{w_1} o ... o psi_{w_n} applied to x (empty word: x)."""
    for k in reversed(list(w)):
        x = psi(ps, k, x)
    return x


def cylinder_of_word(ps, w):
    """The interval phi_w(I)."""
    ends = word_map(ps, list(w), np.array(ps.I))
    return (float(min(ends)), float(max(ends)))


def tail_bound(ps, K, t):
    """Upper bound on sum_{k>K} sup_I |Dpsi_k|^t.

    Geometric-series bound with the ratio read off the last two computed
    levels and inflated by 10 percent; raises RatioNotContracting when the
    levels are not yet decaying geometrically (e.g. t near 0, where the
    full-alphabet sum diverges). The levels sup_I |Dpsi_k|^t come from
    ps.tail_levels, computed once per presentation on a 64-point grid of
    I; sup_I |Dpsi_k| does not depend on t, and raising it to t > 0
    commutes with the sup.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"tail_bound needs finite t > 0, got {t}")
    if not 2 <= K <= ps.Kmax:
        raise DomainError(f"tail_bound needs 2 <= K <= Kmax={ps.Kmax}")
    levels = [float(ps.tail_levels[kk - 1]) ** t for kk in (K - 1, K)]
    ratio = 1.1 * levels[1] / levels[0]
    if ratio >= 1.0:
        raise RatioNotContracting(
            f"level ratio {ratio:.3f} >= 1 at K={K}, t={t}; increase K"
        )
    return levels[1] * ratio / (1.0 - ratio)


def cylinders_csv(ps, path):
    """Dump the cylinder table with per-letter derivative ranges on the
    64-point tail grid of I."""
    header = ["k", "left", "right", "sup_deriv", "min_deriv"]
    x = np.linspace(*ps.I, _TAIL_NX)
    rows = []
    for k, (_, der) in iter_letter_jets(ps, ps.Kmax, x):
        der = np.abs(der)
        cells = (k, *ps.cylinders[k - 1], der.max(), der.min())
        rows.append(dict(zip(header, cells)))
    return write_csv(path, header, rows)
