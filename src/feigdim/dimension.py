"""Pressure, Bowen root, operator and Moran brackets, conformal measure,
and the ell-sweep.

The pressure of the presentation system is realized as the leading
eigenvalue of a collocated weighted composition operator on Chebyshev
nodes; the Hausdorff dimension is its Bowen root. The default bracket
[hd_lo, hd_hi] is certified on the true, un-collocated operator L_t: for
any positive test function h on I, min (L_t h / h) <= exp P(t) <=
max (L_t h / h) (Collatz-Wielandt). h is the interpolated collocation
eigenvector at the root, the extrema are bounded between grid points by a
derivative estimate, and the truncated alphabet's tail is added to the
upper bound; the roots of the two bounds bracket the dimension of the full
system at O(K * grid) cost.

Independent Moran-type sup/inf brackets over finite words (moran_oracle)
cross-check the root, with the tail folded into the upper bracket as
additive inflation. They are computed in an adapted conformal metric: a
least-squares coboundary q (shifted-Chebyshev coefficients on I) flattens
the per-branch derivative variation, which shrinks the sup/inf gap by more
than an order of magnitude while every bound stays a bound (the dimension
and the bracket property are metric-independent). The Moran tables and
the conformal cylinder measure share one word walk (_extend_words) of
phi_w x and log|Dphi_w x|; q telescopes, so it is added after the walk.

Every root in t (the Bowen root, the bracket's crossings, the Moran roots)
is located by Brent's method (roots.brentq) on a sign-changing bracket.

The engine consumes any object with the IFS protocol: `interval` (lo, hi),
`Kmax` (alphabet size), `letters(K)` (the first K letters),
`letter_jets(K, x, nder)` (yields (letter, jets) over letters(K), the
jets being the map's value and nder derivatives at x) and
`tail_bound(K, t)` (bound on the letters beyond K).
"""
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .cheb import cheb_points, eval01, gauss_series, jet_table, vander01
from .errors import (
    DomainError,
    EigenvectorSignFailure,
    FeigdimError,
    InvariantViolation,
    PowerIterationStall,
    RatioNotContracting,
    RootNotBracketed,
    TailTooFat,
)
from .fixedpoint import cached_solve, write_csv
from .presentation import build_presentation
from .roots import brentq
from .unimodal import UnimodalSystem, build_system

_PROBE_GRID = np.linspace(0.1, 1.0, 10)
_WORD_BUDGET = 1_500_000
_BRACKET_NX = 1001          # operator-bracket grid: 1000 cells of I
_BRACKET_W0 = 1e-8          # first half-width of the bracket root search
_BRACKET_XTOL = 1e-13       # bracket root tolerance; roots move out by it
_TAIL_BUDGET = 1e-8         # tail at the root that stops K escalation
_MORAN_NSAMP = 9            # Moran sample points on I per word
_Q_TERMS = 16               # Chebyshev terms of the adapted metric q
_POWER_TOL = 1e-12          # power iteration's relative eigenvalue step
_POWER_MAX_ITER = 5000
_MORAN_SCAN = np.linspace(0.02, 1.4, 29)    # t grid of the Moran root scan
_MORAN_XTOL = 1e-10         # brentq tolerance of the Moran roots

CSV_HEADER = ["ell", "hd", "hd_lo", "hd_hi", "alpha", "tau", "K", "Nc",
              "tail_bound", "runtime_s"]


@dataclass(frozen=True, eq=False)
class PressureModel:
    """Collocated transfer operator data for one truncation level K."""

    ifs: object
    K: int
    Nc: int
    imgs: np.ndarray
    ders: np.ndarray
    B: np.ndarray

    def operator(self, t):
        return np.einsum("ai,aij->ij", self.ders ** t, self.B)


def _node_rows(ifs, K, Nc):
    """build_pressure_model's _rows: the letter_jets stream of letters
    1..K on the Nc Chebyshev nodes of I, and the rows walked so far."""
    return ifs.letter_jets(K, cheb_points(*ifs.interval, Nc), 1), []


def build_pressure_model(ifs, K, Nc=32, _rows=None):
    """Collocated operator of the first K letters on Nc nodes of I.

    B[a, i, j] is the j-th node's cardinal function, the interpolant of
    the j-th unit vector (gauss_series), at psi_a of the i-th node: one
    eval01 pass over all images. _rows is an escalation's _node_rows: each
    model extends its stream to its K instead of restarting at letter 1."""
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (K, Nc)):
        raise DomainError(f"K and Nc must be integers >= 1, got K={K}, "
                          f"Nc={Nc}")
    stream, rows = _rows or _node_rows(ifs, K, Nc)
    for _, (val, der) in itertools.islice(stream, K - len(rows)):
        rows.append((val, np.abs(der)))
    imgs, ders = (np.stack(col) for col in zip(*rows[:K]))
    if not np.all(ders > 0.0):
        raise DomainError("vanishing branch derivative on the node grid")
    lo, hi = ifs.interval
    B = np.moveaxis(eval01(gauss_series(np.eye(Nc)), (imgs - lo) / (hi - lo)),
                    0, -1)
    return PressureModel(ifs, K, Nc, imgs, ders, B)


def _power_pair(M, positive=True):
    """Leading eigenpair by power iteration to relative tolerance 1e-12.

    The right eigenvector approximates a positive eigenfunction and must be
    one-signed; a left eigenvector is a quadrature functional whose node
    weights may legitimately oscillate, so positivity is not demanded there.
    """
    v = np.ones(M.shape[0])
    lam_old = np.inf
    for _ in range(_POWER_MAX_ITER):
        w = M @ v
        lam = float(w @ v) / float(v @ v)
        if not np.isfinite(lam) or lam <= 0.0:
            raise PowerIterationStall(f"eigenvalue estimate {lam} not usable")
        v = w / np.max(np.abs(w))
        if abs(lam - lam_old) <= _POWER_TOL * abs(lam):
            if not positive:
                return lam, (-v if v.sum() < 0.0 else v)
            if v.min() * v.max() <= 0.0:
                raise EigenvectorSignFailure(
                    "leading eigenvector changes sign on the node grid"
                )
            return lam, np.abs(v)
        lam_old = lam
    raise PowerIterationStall(
        f"no convergence in {_POWER_MAX_ITER} iterations")


def pressure_eigen(pm, t):
    """log of the leading eigenvalue of the collocated operator at t."""
    if not 0.0 < t <= 2.0:
        raise DomainError(f"pressure_eigen needs t in (0, 2], got {t}")
    lam, _ = _power_pair(pm.operator(t))
    return float(np.log(lam))


def _bowen_root(pm, root_tol):
    vals = np.array([pressure_eigen(pm, t) for t in _PROBE_GRID])
    if not np.all(np.diff(vals) < 0.0):
        raise InvariantViolation("pressure not strictly decreasing on probes")
    signs = np.sign(vals)
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(changes) != 1:
        raise RootNotBracketed(
            f"{len(changes)} sign changes of log lambda on the probe grid"
        )
    i = changes[0]
    return brentq(lambda t: pressure_eigen(pm, t),
                  _PROBE_GRID[i], _PROBE_GRID[i + 1],
                  xtol=root_tol)


def _eigenfunction(pm, t):
    """(h, h') of the collocation eigenvector of pm at t, anywhere in I.

    The interpolant through the Nc Gauss nodes is a polynomial; its
    Chebyshev series and that of its derivative, stacked as two columns,
    evaluate both in one eval01 pass without a cardinal matrix over the
    evaluation points.
    """
    _, v = _power_pair(pm.operator(t))
    lo, hi = pm.ifs.interval
    table = jet_table(gauss_series(v), 1)
    table[:, 1] /= hi - lo      # d/dx = (d/du) / (hi - lo)
    return lambda x: eval01(table, (x - lo) / (hi - lo))


class _OperatorBounds:
    """Collatz-Wielandt bounds on exp P(t) of the full transfer operator.

    For L_t h = sum_a |psi_a'|^t h o psi_a and any h > 0 on I,
    min_I (L_t h / h) <= exp P(t) <= max_I (L_t h / h). The ratio r_t over
    the first K letters and its derivative are tabulated on _BRACKET_NX
    points of I from one second-order jet pass. Between grid points r_t
    moves by at most (dx / 2) sup |r_t'|, taken as dx * max |r_t'| on the
    grid (twice the half-cell Lipschitz step). The letters beyond K raise
    the ratio by at most tail_bound(K, t) * max h / min h. h maps points to
    (h, h').
    """

    def __init__(self, ifs, K, h):
        x = np.linspace(*ifs.interval, _BRACKET_NX)
        hx, dhx = h(x)
        if not np.all(hx > 0.0):
            raise EigenvectorSignFailure(
                "bracket test function not positive on the grid of I"
            )
        self.ifs, self.K = ifs, K
        self.dx = float(np.max(np.diff(x)))
        self.spread = float(hx.max() / hx.min())
        self.dlog_h = dhx / hx
        # per letter: log|psi'|, h(psi x) / h(x), and curv, slope with
        # d/dx |psi'|^t h(psi x) / h(x) = |psi'|^t (t * curv + slope)
        logd, hv, curv, slope = [], [], [], []
        for _, (val, d1, d2) in ifs.letter_jets(K, x, 2):
            hval, dhval = h(val)
            logd.append(np.log(np.abs(d1)))
            hv.append(hval / hx)
            curv.append(d2 / d1 * hval / hx)
            slope.append(d1 * dhval / hx)
        self.logd, self.hv, self.curv, self.slope = (
            np.stack(a) for a in (logd, hv, curv, slope))

    def ratio(self, t):
        """(r_t, r_t') on the grid, over the first K letters."""
        w = np.exp(t * self.logd)
        r = np.einsum("ai,ai->i", w, self.hv)
        dr = (t * np.einsum("ai,ai->i", w, self.curv)
              + np.einsum("ai,ai->i", w, self.slope) - r * self.dlog_h)
        return r, dr

    def envelope(self, t):
        """(min r_t - slack, max r_t + slack): r_t over all of I."""
        r, dr = self.ratio(t)
        slack = self.dx * float(np.max(np.abs(dr)))
        return float(r.min()) - slack, float(r.max()) + slack

    def bracket(self, t0):
        """Roots of log lower = 0 and log upper = 0 near t0, rounded out.

        The lower bound's root is at most the dimension of the full system
        and the upper bound's root at least it; brentq places each within
        _BRACKET_XTOL, so each moves outward by that much. The roots are
        located as crossings of 1, which keeps a non-positive lower bound
        (a poor test function) on the negative side instead of at log 0.
        """
        lo = _crossing(lambda t: self.envelope(t)[0] - 1.0, t0)
        hi = _crossing(lambda t: (self.envelope(t)[1] + self.ifs.tail_bound(
            self.K, t) * self.spread) - 1.0, t0)
        return lo - _BRACKET_XTOL, hi + _BRACKET_XTOL


def _crossing(fn, t0):
    """Root of the decreasing fn in a window around t0 that widens 8x per
    step until fn changes sign, staying inside (0, 2 t0)."""
    w = _BRACKET_W0
    while w < t0:
        a, b = t0 - w, t0 + w
        if fn(a) > 0.0 >= fn(b):
            return brentq(fn, a, b, xtol=_BRACKET_XTOL)
        w *= 8.0
    raise RootNotBracketed(f"bracket bound never crosses 1 in (0, {2 * t0})")


def _as_ifs(obj):
    if isinstance(obj, UnimodalSystem):
        return build_presentation(obj)
    return obj


@dataclass(frozen=True)
class DimensionResult:
    hd: float
    hd_lo: float
    hd_hi: float
    K: int
    Nc: int
    tail_t: float
    runtime_s: float


def hausdorff_dimension(obj, K=None, Nc=32, root_tol=1e-8, with_bracket=True):
    """Bowen root of the pressure plus a bracket certified on the operator.

    Accepts a built UnimodalSystem (its build_presentation is the IFS) or
    any object exposing the IFS protocol (interval, Kmax, letters,
    letter_jets, tail_bound). With K unset the truncation starts at
    min(32, Kmax) and auto-escalates until the alphabet tail at the root
    is below 1e-8, doubling K where the tail levels do not decay yet
    (RatioNotContracting); only at Kmax does escalation fail, with
    TailTooFat or RatioNotContracting. An explicitly pinned K is honored as
    given. Escalation extends one node stream: each model reuses the node
    jets of the letters earlier models walked.

    With with_bracket, [hd_lo, hd_hi] is the hull of hd and the
    Collatz-Wielandt bracket of the full system, tested with the final
    model's eigenvector at hd; a root more than root_tol outside that
    bracket raises InvariantViolation. Without it hd_lo = hd_hi = hd.
    """
    t_start = time.perf_counter()
    ifs = _as_ifs(obj)
    pinned = K is not None
    if K is None:
        K = min(32, ifs.Kmax)

    # one node stream, to the last letter any model of the call may take
    rows = _node_rows(ifs, K if pinned else ifs.Kmax, Nc)
    while True:
        pm = build_pressure_model(ifs, K=K, Nc=Nc, _rows=rows)
        hd = _bowen_root(pm, root_tol)
        try:
            tail = float(ifs.tail_bound(K, hd))
            if pinned or tail < _TAIL_BUDGET:
                break
            if K >= ifs.Kmax:
                raise TailTooFat(
                    f"tail {tail:.3e} > {_TAIL_BUDGET:.1e} with the alphabet "
                    f"exhausted at K={K}"
                )
            # predictive jump: per-letter level ratio from two adjacent tails
            r = tail / ifs.tail_bound(K - 1, hd)
        except RatioNotContracting:
            # the levels near K do not decay yet: double K while the
            # alphabet has room, and give up only at Kmax (or a pinned K)
            if pinned or K >= ifs.Kmax:
                raise
            K = min(ifs.Kmax, 2 * K)
            continue
        r = min(max(r, 1e-6), 0.999)
        need = int(np.ceil(np.log(0.2 * _TAIL_BUDGET / tail) / np.log(r)))
        K = min(ifs.Kmax, K + max(10, need))

    del rows    # the final model holds its own tables
    if not 0.0 < hd < 1.0:
        raise InvariantViolation(f"Bowen root {hd} outside (0, 1)")

    if with_bracket:
        lo, hi = _OperatorBounds(ifs, K, _eigenfunction(pm, hd)).bracket(hd)
        if not lo - root_tol <= hd <= hi + root_tol:
            raise InvariantViolation(
                f"Bowen root {hd:.12f} outside the operator bracket "
                f"[{lo:.12f}, {hi:.12f}] by more than {root_tol:.1e}"
            )
        hd_lo, hd_hi = min(lo, hd), max(hi, hd)
    else:
        hd_lo = hd_hi = hd

    return DimensionResult(hd, hd_lo, hd_hi, K, Nc, tail,
                           time.perf_counter() - t_start)


def _sample_points(interval, nsamp):
    lo, hi = interval
    theta = np.pi * np.arange(nsamp) / (nsamp - 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _fit_adapted_metric(interval, xs, vals, lds):
    """Least-squares coboundary q with sigma = exp(q) flattening distortion.

    Solves min over (q, per-letter constants c_a) of the squared residuals
    log|psi_a'(x)| + q(psi_a x) - q(x) - c_a over letters and samples. q is
    _Q_TERMS shifted-Chebyshev coefficients in u = (x - lo) / (hi - lo);
    its constant coefficient, the mean of q over as many Chebyshev-Gauss
    nodes, is pinned to zero. Returns (q, delta_q), delta_q being q's
    oscillation on 512 points of I.
    """
    na, ns = lds.shape
    lo, hi = interval
    deg = _Q_TERMS - 1
    rows = np.zeros((na * ns + 1, _Q_TERMS + na))
    rows[:-1, :_Q_TERMS] = (vander01((vals - lo) / (hi - lo), deg)
                            - vander01((xs - lo) / (hi - lo), deg)
                            ).reshape(na * ns, _Q_TERMS)
    rows[np.arange(na * ns), _Q_TERMS + np.repeat(np.arange(na), ns)] = -1.0
    rows[-1, 0] = 1.0
    rhs = np.append(-lds.ravel(), 0.0)
    q = np.linalg.lstsq(rows, rhs, rcond=None)[0][:_Q_TERMS]
    g = eval01(q, np.linspace(0.0, 1.0, 512))
    return q, float(g.max() - g.min())


def _extend_words(ifs, K, pos, logd):
    """Prepend every letter of ifs.letters(K) to every word, letter-major.

    Row w of pos holds phi_w at the sample points and row w of logd
    log|Dphi_w| there. Word a w lands in row a * len(pos) + w, so rows stay
    in lexicographic order; its rows are psi_a(pos[w]) and
    log|psi_a'(pos[w])| + logd[w] (the chain rule).
    """
    nw = pos.shape[0]
    new_pos = np.empty((len(ifs.letters(K)) * nw, pos.shape[1]))
    new_logd = np.empty_like(new_pos)
    for a, (_, (val, der)) in enumerate(ifs.letter_jets(K, pos, 1)):
        block = slice(a * nw, (a + 1) * nw)
        new_pos[block] = val
        np.add(np.log(np.abs(der)), logd, out=new_logd[block])
    return new_pos, new_logd


def _word_tables(ifs, K, n, metric):
    """Per-word sup/inf of the (metric-weighted) log derivative at depth n.

    The walk prepends letters from the empty word, tracking phi_w(x) and
    log|Dphi_w(x)| at the sample points. In the metric exp(q) the log
    derivative is log|Dphi_w(x)| + q(phi_w x) - q(x), since q telescopes
    along the word, so q is added once, after the walk. "adapted" fits q;
    "euclid" is q = 0 (delta_q 0), which adds exact zeros. Returns the
    depth-n sup and inf, the depth-1 sup, and delta_q.
    """
    na = len(ifs.letters(K))
    if na ** n > _WORD_BUDGET:
        raise DomainError(f"{na}^{n} words exceed the {_WORD_BUDGET} budget")
    lo, hi = ifs.interval
    xs = _sample_points(ifs.interval, _MORAN_NSAMP)
    vals, lds = _extend_words(ifs, K, xs[None, :], np.zeros((1, xs.size)))
    q, delta_q = (_fit_adapted_metric(ifs.interval, xs, vals, lds)
                  if metric == "adapted" else (np.zeros(1), 0.0))
    pos, logd = vals, lds.copy()   # logd takes q in place below
    for _ in range(n - 1):
        pos, logd = _extend_words(ifs, K, pos, logd)
    qx = eval01(q, (xs - lo) / (hi - lo))
    nw = len(pos) // na
    for a in range(na):     # a letter's rows at a time: no third full table
        rows = slice(a * nw, (a + 1) * nw)
        logd[rows] += eval01(q, (pos[rows] - lo) / (hi - lo)) - qx
    ld1 = eval01(q, (vals - lo) / (hi - lo)) - qx + lds
    return logd.max(axis=1), logd.min(axis=1), ld1.max(axis=1), delta_q


@dataclass(frozen=True)
class MoranBracket:
    t_lo: float
    t_hi: float
    n: int
    K: int
    metric: str
    delta_q: float

    def __iter__(self):
        return iter((self.t_lo, self.t_hi))

    @property
    def width(self):
        return self.t_hi - self.t_lo


def _logsumexp(a):
    """log sum exp(a) over a 1-d array, as scipy.special.logsumexp rounds.

    The m entries equal to the maximum are counted apart from the rest:
    log1p(sum of the rest's exp(a - a_max) / m) + log m + a_max.
    """
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def _log_root(fn):
    prev_t, prev_v = None, None
    for t in _MORAN_SCAN:
        try:
            v = fn(t)
        except (RatioNotContracting, OverflowError):
            prev_t, prev_v = None, None
            continue
        if prev_v is not None and prev_v > 0.0 >= v:
            return brentq(fn, prev_t, t, xtol=_MORAN_XTOL)
        prev_t, prev_v = t, v
    raise RootNotBracketed("Moran sum never crosses 1 on the scan range")


def moran_oracle(ifs, n, K=None, metric="adapted"):
    """Independent dimension bracket from depth-n sup/inf Moran sums.

    Roots t of sum over words of (sup resp. inf of |Dphi_w| in the chosen
    metric)^t = 1. The truncated alphabet's missing letters inflate the
    sup-side sum by (p_1 + T)^n - p_1^n with T the tail bound carried into
    the adapted metric, so the upper root bounds the full-alphabet root.
    metric "adapted" fits the coboundary q and "euclid" is q = 0 (delta_q
    0); any other value raises DomainError. ifs is an IFS or a
    UnimodalSystem (its build_presentation); K defaults to min(24, Kmax).
    brentq places both roots within 1e-10.
    """
    if not 1 <= n <= 5:
        raise DomainError(f"moran_oracle needs 1 <= n <= 5, got {n}")
    ifs = _as_ifs(ifs)
    if K is None:
        K = min(24, ifs.Kmax)
    if K > 64:
        raise DomainError(f"K = {K} exceeds the budget 64")
    if metric not in ("adapted", "euclid"):
        raise DomainError(f"metric must be adapted or euclid, got {metric!r}")
    s_sup, s_inf, s1_sup, delta_q = _word_tables(ifs, K, n, metric)

    def p_inf(t):
        return _logsumexp(t * s_inf)

    def p_sup(t):
        base = _logsumexp(t * s_sup)
        tail = ifs.tail_bound(K, t) * np.exp(t * delta_q)
        if tail == 0.0:
            return base
        p1 = np.exp(_logsumexp(t * s1_sup))
        return float(np.log(np.exp(base) + (p1 + tail) ** n - p1 ** n))

    t_lo = _log_root(p_inf)
    t_hi = _log_root(p_sup)
    if t_hi < t_lo:
        raise InvariantViolation(
            f"Moran roots inverted: t_lo={t_lo} > t_hi={t_hi}"
        )
    return MoranBracket(t_lo, t_hi, n, K, metric, delta_q)


@dataclass(frozen=True)
class CylinderMeasure:
    words: list
    mu: np.ndarray
    xbar: np.ndarray
    m2: np.ndarray
    lam: float
    raw_mass: float


def _leading_pair_both(pm, t):
    M = pm.operator(t)
    lam_r, h = _power_pair(M)
    lam_l, nu = _power_pair(M.T, positive=False)
    if abs(lam_r - lam_l) > 1e-8 * abs(lam_r):
        raise PowerIterationStall(
            f"left/right eigenvalues disagree: {lam_r} vs {lam_l}"
        )
    denom = float(nu @ h)
    if denom < 0.0:
        nu, denom = -nu, -denom
    if denom == 0.0:
        raise EigenvectorSignFailure("left functional annihilates h")
    return lam_r, h, nu


def cylinder_measure(pm, t_star, depth=3):
    """Conformal-measure weights over depth-n cylinders.

    The left eigen-functional nu of the collocated operator acts as a
    spectrally accurate quadrature rule for the t-conformal measure m, so
    cylinder masses are realized exactly through the change of variables
    m(cyl(w)) = lam^{-|w|} <nu, |Dphi_w|^t> / <nu, 1>.  Barycenters and
    central second moments of m on every cylinder come along for free and
    feed the quadrature in the conformality check.
    """
    if not 1 <= depth <= 4:
        raise DomainError(
            f"cylinder_measure needs 1 <= depth <= 4, got {depth}")
    letters = pm.ifs.letters(pm.K)
    na = len(letters)
    if na ** depth * pm.Nc > 8_000_000:
        raise DomainError(
            f"{na}^{depth} cylinders on {pm.Nc} nodes exceed the budget"
        )
    lam, h, nu = _leading_pair_both(pm, t_star)
    Z = float(nu.sum())
    if Z <= 0.0:
        raise EigenvectorSignFailure("left functional has non-positive mass")

    pos, logd = pm.imgs, np.log(pm.ders)
    for _ in range(depth - 1):
        pos, logd = _extend_words(pm.ifs, pm.K, pos, logd)

    logd *= t_star      # in place: a temporary table here would raise peak RSS
    core = np.exp(logd)
    weight = core @ nu
    raw = weight / (Z * lam ** depth)
    raw_mass = float(raw.sum())
    if np.any(raw <= 0.0):
        raise EigenvectorSignFailure("non-positive cylinder weight")
    mu = raw / raw_mass
    xbar = (core * pos) @ nu / weight
    m2 = (core * (pos - xbar[:, None]) ** 2) @ nu / weight
    words = list(itertools.product(letters, repeat=depth))
    return CylinderMeasure(words, mu, xbar, m2, lam, raw_mass)


def conformality_residual(pm, t_star, depth=3):
    """max over letters i, words w of |m(i w) - int_{cyl w} |Dpsi_i|^t dm|.

    The defining identity of the t-conformal measure, checked on every
    depth-(n-1) cylinder.  The integral is quadratured over the depth-n
    sub-partition {cyl(w j)}: barycenter rule plus second-moment curvature
    correction per sub-cell.  A single-cell midpoint rule misses by ~1e-2
    on the widest cylinders; partitioning brings the error under 1e-6.
    """
    if depth < 2:
        raise DomainError("conformality check needs depth >= 2")
    fine = cylinder_measure(pm, t_star, depth)
    na = len(pm.ifs.letters(pm.K))
    # words are lexicographic: row u of raw.reshape(-1, na) holds the
    # children u j of u, and row i of raw.reshape(na, -1) the words i u
    raw = fine.mu * fine.raw_mass
    worst = 0.0
    for i, (_, (_, d1, d2, d3)) in enumerate(
            pm.ifs.letter_jets(pm.K, fine.xbar, 3)):
        F = np.abs(d1) ** t_star
        F2 = F * t_star * ((t_star - 1.0) * (d2 / d1) ** 2 + d3 / d1)
        term = (F + 0.5 * F2 * fine.m2) * raw
        rhs = term.reshape(-1, na).sum(axis=1)
        lhs = fine.lam * raw.reshape(na, -1)[i]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass
class DimensionReport:
    """Dimension rows, dicts keyed by CSV_HEADER, and (ell, message) failures."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, sys, res):
        """Append the row of the DimensionResult res for sys."""
        self.rows.append({"ell": sys.ell, "hd": res.hd, "hd_lo": res.hd_lo,
                          "hd_hi": res.hd_hi, "alpha": sys.fp.alpha,
                          "tau": sys.tau, "K": res.K, "Nc": res.Nc,
                          "tail_bound": res.tail_t,
                          "runtime_s": res.runtime_s})

    def to_csv(self, dest):
        """The rows as CSV to dest, a path or a text stream (write_csv)."""
        return write_csv(dest, CSV_HEADER, self.rows)


def sweep(ells, degree=40, K=None, Nc=32, tol=1e-10, cache_dir=None,
          progress=None):
    """One dimension row per ell, continuation-seeded; failures recorded.

    Fixed points come from fixedpoint.cached_solve, each continued from the
    previous ell's on a cache miss.
    """
    ells = list(ells)
    if any(ell % 2 or ell <= 0 for ell in ells) or \
            sorted(ells) != ells or len(set(ells)) != len(ells):
        raise DomainError("sweep needs strictly ascending even ells")
    report = DimensionReport()
    fp = None
    for ell in ells:
        try:
            fp, _, _ = cached_solve(ell, degree, tol, cache_dir, prev=fp)
            sys = build_system(fp)
            report.add(sys, hausdorff_dimension(sys, K=K, Nc=Nc))
        except FeigdimError as exc:
            report.failures.append((ell, f"{type(exc).__name__}: {exc}"))
        if progress is not None:
            progress(ell, report)
    return report
