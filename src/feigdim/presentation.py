"""The infinite presentation IFS {psi_k = G^k o H^{-1}} on I = [c_2, c_4].

Period doubling has one inverse branch H^{-1}, so a letter is its depth
k = 1..Kmax: a countable conformal IFS indexed by k alone.
PresentationSystem implements the IFS protocol of the dimension engine
(interval, Kmax, letter_jets, tail_bound); its letter_jets is
iter_letter_jets, the one stream of jets over letters 1..K in order, and a
single letter's jets are that stream's k-th item.

The branch H^{-1} maps I onto [0, 1/tau]: one Newton step from a cubic
Hermite start solves e(w) = x^(1/ell) on G's series e(w) = E(w/tau), with
z = w/tau. G^k is k explicit contraction steps of one pow each, stable for
every k as the cylinders accumulate at the attracting fixed point x_c of
G; step k reads G's series re-expanded on the branch lap or cylinder k - 1
(g_levels), a few terms long for the deep letters, and a series q on I,
or a stack of them, can ride the next step's table to be read at each
letter's values. The composition psi_k = H^{-1} o tau^{-k}, well
conditioned only for shallow k, is the test suite's independent
reference (tests/oracles.py).
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
from .unimodal import (DEFAULT_ORBIT_MAX, _G_jets, _power_jets,
                       critical_orbit, eval_H)

_X_SLACK = 1e-9
_W_PAD = 2.0 ** -10
_TAIL_NX = 64
_CERT_NX = 200
_NBIS = 8


@dataclass(frozen=True, eq=False)
class PresentationSystem:
    """Built presentation IFS with cylinder table and contraction data.

    tail_levels[k - 1] is sup |Dpsi_k| on a 64-point grid of I (read-only).
    g_levels[k] = (a, b, table, heads): G's order-n jets re-expanded on the
    branch lap (k = 0) or cylinder k +- _X_SLACK are table[:heads[n], :n + 1].
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
    g_levels: tuple

    @property
    def interval(self):
        return self.I

    def letter_jets(self, K, x, nder=1, q=None):
        return iter_letter_jets(self, K, x, nder, q)

    def tail_bound(self, K, t):
        return tail_bound(self, K, t)


def _check_letter(ps, k):
    """A letter, or a truncation K, is an integer depth in 1..Kmax, not a
    bool."""
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool)
            and 1 <= k <= ps.Kmax):
        raise IndexOutOfAlphabet(f"{k} is not a letter of 1..{ps.Kmax}")


def _bisection_cells(sys):
    """The 2^_NBIS + 1 points that _NBIS bisection steps on
    [-_W_PAD, 1 + _W_PAD] can reach, each an exact dyadic, e on them, and
    the coefficients c1..c3 of e's inverse cubic Hermite interpolant
    grid[j] + r (c1 + r (c2 + r c3)), r = target - e(grid[j]), on each cell.

    Step by step, bisection keeps a when e(mid) > target, so it ends in the
    cell [grid[j], grid[j + 1]] whose j counts the inner points grid[1:-1]
    with e > target: searchsorted on the strictly decreasing table gives
    that cell bit for bit.
    """
    n = 2 ** _NBIS
    grid = -_W_PAD + np.arange(n + 1) * ((1.0 + 2.0 * _W_PAD) / n)
    eg = cheb.eval01(sys.g_tables[0][:, 0], grid)
    if not np.all(np.diff(eg) < 0.0):
        raise InvariantViolation(
            "G's series e is not strictly decreasing on the bisection grid")
    c1 = 1.0 / cheb.eval01(sys.g_tables[1][:, 1], grid)
    de, secant = np.diff(eg), np.diff(grid) / np.diff(eg)
    c2 = (3.0 * secant - 2.0 * c1[:-1] - c1[1:]) / de
    c3 = (c1[:-1] + c1[1:] - 2.0 * secant) / (de * de)
    return grid, eg, (c1, c2, c3)


def _solve_e_decreasing(sys, targets):
    """Solve e(w) = target on G's series, decreasing and positive on
    [-_W_PAD, 1 + _W_PAD]: the pad holds the roots for all of I widened by
    _X_SLACK (within 1e-8 of [0, 1]), so no x psi accepts is clipped.

    The bracket [a, b] of the root is the cell of _bisection_cells that
    _NBIS bisection steps would reach, found by searchsorted; one Newton
    step from the cell's Hermite start, clipped to [a, b], polishes it.
    """
    targets = np.asarray(targets, dtype=float)
    grid, eg, (c1, c2, c3) = _bisection_cells(sys)
    j = np.searchsorted(-eg[1:-1], -targets)
    r = targets - eg[j]
    w = c3[j]       # the start in place, one gathered temporary at a time
    for c in (c2, c1, grid):
        w *= r
        w += c[j]
    del r
    e, e1 = cheb.eval01(sys.g_tables[1], w)
    w -= np.divide(np.subtract(e, targets, out=e), e1, out=e)
    return np.clip(w, np.take(grid, j, out=e), np.take(grid, j + 1, out=e1),
                   out=w)


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
        h3 = tau * tau * tau * jets[3]
        sq = out[1] * out[1]
        out.append((3.0 * h2 ** 2 - h1 * h3) * (sq * sq * out[1]))
    return tuple(out)


def _g_step_jets(ps, k, jets, nder, q=None):
    """Push jets of a map f through step k of the letter stream: the chain
    rule for e o f in place on e's jets, read on that step's level table,
    then their power (_power_jets), and the (columns, points) table of
    q o f for a stack q of series on the level."""
    a, b, level, heads = ps.g_levels[k - 1]
    n = min(nder, 3)
    table = level[:heads[n], :n + 1]
    if q is not None:   # read as more columns
        table, jet = np.zeros((max(len(table), len(q)),
                               n + 1 + q.shape[1])), table
        table[:len(jet), :n + 1], table[:len(q), n + 1:] = jet, q
    u = np.subtract(jets[0], a)
    u /= b - a
    g = cheb.eval01(table, u)
    del u       # the argument, freed before the jets are formed
    if nder >= 2:
        sq = jets[1] * jets[1]
        if nder >= 3:
            g[3] *= sq * jets[1]
            g[3] += 3.0 * g[2] * jets[1] * jets[2]
            g[3] += g[1] * jets[3]
        g[2] *= sq
        g[2] += np.multiply(g[1], jets[2], out=sq)
    if nder >= 1:
        g[1] *= jets[1]
    out = tuple(_power_jets(g[:n + 1], ps.sys.ell))
    return out if q is None else (*out, g[n + 1:])


def iter_letter_jets(ps, K, x, nder=1, q=None):
    """Yield psi_k's jets at x for k = 1..K in order, sharing the G-iteration.

    The only whole-alphabet jet path: one branch inversion and K
    contraction steps cover the alphabet, and callers that stream the
    letters keep memory at a single jet tuple. x outside I widened by
    _X_SLACK raises DomainError, so step k reads G inside its level: at
    H^{-1}(x) in the branch lap (where Newton is clipped) for k = 1, else at
    psi_{k-1}(x), within _X_SLACK of cylinder k - 1 = psi_{k-1}(I) as every
    letter contracts (tail_levels < 1), up to the roundoff of the scalar
    cylinder walk. Given q, a series on I or a stack of them as columns,
    item k ends with q(psi_k x), eval01's array for q, read as more columns
    of step k + 1's table, so yielded after that step.
    """
    _check_letter(ps, K)
    x = np.asarray(x, dtype=float)
    if not np.all((ps.I[0] - _X_SLACK <= x) & (x <= ps.I[1] + _X_SLACK)):
        raise DomainError(f"letter argument outside I = {list(ps.I)}")
    jets = _g_step_jets(ps, 1, _h_inverse_jets(ps.sys, x, nder), nder)
    if q is None:
        for k in range(2, K + 1):
            yield jets
            jets = _g_step_jets(ps, k, jets, nder)
        yield jets
        return
    cols = np.reshape(q, (len(q), -1))      # one column per series
    shape = np.shape(q)[1:] + x.shape       # eval01's for q at x
    ends = np.array([lv[:2] for lv in ps.g_levels[1:K + 1]]) - ps.I[0]
    qs = cheb.restrict01(np.tile(cols, K), *np.repeat(
        ends, cols.shape[1], axis=0).T / (ps.I[1] - ps.I[0]))
    qs = qs.reshape(len(qs), K, -1)
    qs = [qs[:m, k] for k, m in enumerate(cheb.heads(qs).max(axis=1))]
    for k in range(2, K + 1):
        *step, qk = _g_step_jets(ps, k, jets, nder, qs[k - 2])
        yield (*jets, qk.reshape(shape))
        jets = step
    a, b = ps.g_levels[K][:2]
    qk = cheb.eval01(qs[-1], (jets[0] - a) / (b - a))
    yield (*jets, qk.reshape(shape))


def stack_letter_jets(ifs, K, x, nder=1):
    """The jets of letters 1..K at the points x from one letter_jets pass,
    stacked: item j is the (K, len(x)) table of every letter's j-th jet."""
    out = np.empty((nder + 1, K, len(x)))
    for a, jets in enumerate(ifs.letter_jets(K, x, nder)):
        out[:, a] = jets
    return out


def _psi_jets(ps, k, x, nder):
    """Jets of the single letter psi_k: the k-th item of iter_letter_jets."""
    for jets in iter_letter_jets(ps, k, x, nder):
        pass
    return jets


def psi(ps, k, x, deriv=0):
    """psi_k(x) or its first derivative, x in I."""
    if deriv not in (0, 1):
        raise DomainError(f"deriv must be 0 or 1, got {deriv}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = _psi_jets(ps, k, x_arr, deriv)[deriv]
    return float(out[0]) if np.ndim(x) == 0 else out


def build_presentation(sys, j_margin=0.2):
    """Construct the certified presentation system and verify its invariants.

    Kmax = min(400, ceil(44 / |ln lam~|) + 20) letters, lam~ = tau^(-1/ell)
    = |G'(x_c)|: 68 at ell = 2, 164 at ell = 8, 328 at ell = 20 and 400 from
    ell = 26; a consumer that wants fewer letters passes its own K. Letter k
    has cylinder endpoints c_{2^k} and c_{3*2^k}: endpoint identities are
    checked for k = 1..k_verify <= k_fit = 10, as deep as the critical
    orbit's doubling defect stays below tolerance. The orbit is only as deep
    as that check reads (4,097 entries at ell 2, 513 at 8, 129 at 16-22),
    and its clamp warnings cover only those entries.

    The alphabet is walked once per grid: three scalar G-orbits give the
    cylinder table, and one stacked jet table (stack_letter_jets) gives
    tail_levels and the contraction certificate lambda_rho of the one J,
    I widened by j_margin times its width on each side; NoContraction when
    lambda_rho >= 1.
    """
    if not 0.0 < j_margin < np.inf:
        raise DomainError(f"j_margin must be finite and > 0, got {j_margin}")
    lam_tilde = sys.tau ** (-1.0 / sys.ell)
    Kmax = min(400, int(np.ceil(44.0 / abs(np.log(lam_tilde)))) + 20)

    # Deep orbit entries accumulate roundoff (worse for large ell), so the
    # endpoint identity is only certifiable as far as the table's own noise
    # floor allows. The doubling defect |G(c_j) - c_{2j}|, j = 1..n/2,
    # probes that floor up to index n = 2^(k+3); verification depth stops
    # where it nears the tolerance, and the orbit grows only that deep.
    k_fit = (DEFAULT_ORBIT_MAX // 4).bit_length() - 1     # 10 < Kmax
    orbit, k_verify = None, 0
    while k_verify < k_fit:
        orbit = critical_orbit(sys, 8 << k_verify, orbit)
        half = np.arange(1, len(orbit) // 2 + 1)
        defect = np.abs(_G_jets(sys, orbit[half], 0)[0] - orbit[2 * half])
        if not defect.max() < 0.25e-8:
            break
        k_verify += 1

    lo, hi = sorted((orbit[2], orbit[4]))
    I = (float(lo), float(hi))

    dH = eval_H(sys, np.linspace(*sorted((orbit[1], orbit[3])), 257), 1)
    if dH.max() * dH.min() <= 0.0:
        raise BranchNotMonotone("H not monotone on the branch lap [c_1, c_3]")

    if k_verify == 0:
        raise InvariantViolation(
            f"orbit doubling defect {defect.max():.2e} already "
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
                            k_verify=k_verify, tail_levels=None,
                            g_levels=_g_levels(sys, cylinders))
    x = np.concatenate([np.linspace(*I, _CERT_NX), np.linspace(*I, _TAIL_NX)])
    jets = stack_letter_jets(ps, Kmax, x)
    val, der = (jet[:, :_CERT_NX] for jet in jets)
    worst = _contraction_ratio(J, x[:_CERT_NX], val, der).max()  # NaN kept
    if not worst < 1.0:
        raise NoContraction(
            f"lambda_rho = {worst:.6g} >= 1 at J margin {j_margin}")
    levels = np.max(np.abs(jets[1][:, _CERT_NX:]), axis=1)
    levels.flags.writeable = False
    return replace(ps, lambda_rho=float(worst), tail_levels=levels)


def _g_levels(sys, cylinders):
    """G's jet tables (g_levels), all re-expanded by one recurrence, on the
    branch lap and on every cylinder widened by _X_SLACK; cylinder k is
    about lam~^k as wide as I, and its level a few terms long."""
    lo = np.append(-_W_PAD / sys.tau, cylinders[:, 0] - _X_SLACK)
    hi = np.append((1.0 + _W_PAD) / sys.tau, cylinders[:, 1] + _X_SLACK)
    table = cheb.restrict01(np.tile(sys.g_tables[3], len(lo)),
                            np.repeat(lo, 4), np.repeat(hi, 4))
    heads = np.maximum.accumulate(cheb.heads(table).reshape(-1, 4), axis=1)
    return tuple((a, b, table[:h[3], 4 * i:4 * i + 4], tuple(h))
                 for i, (a, b, h) in enumerate(zip(lo.tolist(), hi.tolist(),
                                                   heads.tolist())))


def _rho_density(J, x):
    """Hyperbolic density (up to a constant) of the disk with diameter J."""
    A, B = J
    return 1.0 / ((x - A) * (B - x))


def _contraction_ratio(J, x, val, der):
    """|psi'(x)| rho(psi x) / rho(x), from the letters' jets at x."""
    return np.abs(der) * _rho_density(J, val) / _rho_density(J, x)


def contraction_certificate(ps):
    """sup over the alphabet and x in I of |psi'(x)| rho(psi x)/rho(x),
    rho being the hyperbolic density of the disk with diameter ps.J."""
    x = np.linspace(*ps.I, _CERT_NX)
    val, der = stack_letter_jets(ps, ps.Kmax, x)
    return float(_contraction_ratio(ps.J, x, val, der).max())


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
    if not (isinstance(K, (int, np.integer)) and 2 <= K <= ps.Kmax):
        raise DomainError(f"tail_bound needs integer K in 2..{ps.Kmax}")
    levels = [float(ps.tail_levels[kk - 1]) ** t for kk in (K - 1, K)]
    ratio = 1.1 * levels[1] / levels[0]
    if ratio >= 1.0:
        raise RatioNotContracting(
            f"level ratio {ratio:.3f} >= 1 at K={K}, t={t}; increase K"
        )
    return levels[1] * ratio / (1.0 - ratio)

