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
system at O(K * grid) cost. One letter stream, folded 32 letters at a time
into a quadratic in t about the Bowen root whose Lagrange remainder the
bounds carry, serves every t a default row's two root searches read: no
table has a row per letter, and no t takes an exp over the letters. A t
where that remainder is not negligible streams the letters again, about
itself.

Independent Moran-type sup/inf brackets over finite words (moran_oracle)
cross-check the root, with the tail folded into the upper bracket as
additive inflation. They are computed in an adapted conformal metric: a
least-squares coboundary q (shifted-Chebyshev coefficients on I) flattens
the per-branch derivative variation, which shrinks the sup/inf gap by more
than an order of magnitude while every bound stays a bound (the dimension
and the bracket property are metric-independent). The Moran tables and
the conformal cylinder measure share one word walk of phi_w x and
log|Dphi_w x|: _extend_words tables every level but the last, which
_letter_blocks streams one letter's words at a time, each block reduced
to its per-word results at once, so no table has K^n words; q
telescopes, so the walk adds it once, -q(x) at its start and q(phi_w x)
with the letter stream of the last level. The walk's tables are (samples,
words), one column per word in lexicographic order, so a word's sup, inf
or quadrature reduces along axis 0 over long contiguous rows.

Every root in t (the Bowen root, the bracket's crossings, the Moran roots)
is located by Brent's method (roots.brentq) on a sign-changing bracket.

The engine consumes any object with the IFS protocol: `interval` (lo, hi),
`Kmax` (alphabet size), `letter_jets(K, x, nder, q=None)` (yields letters
1..K in order, each its value and nder derivatives at x, then q(value),
eval01's array, for a series q on I or a stack of them as columns, like
the bracket's (h, h')) and `tail_bound(K, t)` (bound on the letters beyond
K). A truncation K is the number of letters; every table has K letter rows.
"""
import functools
import itertools
import math
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

_PROBE_STEP = 0.1
_PROBE_GRID = np.linspace(_PROBE_STEP, 1.0, 10)
_WORD_BUDGET = 1_500_000
_BRACKET_NX = 1001          # operator-bracket grid: 1000 cells of I
_BRACKET_W0 = 1e-8          # first half-width of the bracket root search
_BRACKET_XTOL = 1e-13       # bracket root tolerance; roots move out by it
_FOLD_LETTERS = 32          # letters per fold of the bracket's stream
_TAYLOR_TERMS = 3           # the bracket's Taylor coefficients in t - t0
_TAYLOR_TOL = 2.0 ** -56    # widest envelope widening an expansion gives
_TAIL_BUDGET = 1e-8         # tail at the root that stops K escalation
_MORAN_NSAMP = 9            # Moran sample points on I per word
_MORAN_POINTS = 50_000      # most points per letter stream of a last level
_Q_TERMS = 16               # Chebyshev terms of the adapted metric q
_POWER_TOL = 1e-12          # power iteration's relative eigenvalue step
_POWER_MAX_ITER = 5000
_MORAN_SCAN = np.linspace(0.02, 1.4, 29)    # t grid of the Moran root scan
_MORAN_XTOL = 1e-10         # brentq tolerance of the Moran roots

CSV_HEADER = ["ell", "hd", "hd_lo", "hd_hi", "alpha", "tau", "K", "Nc",
              "tail_bound", "runtime_s"]


@dataclass(frozen=True, eq=False)
class PressureModel:
    """Collocated transfer operator data for one truncation level K. B is
    a (K, Nc, Nc) view of a contiguous (Nc, K, Nc) array, so operator(t) is
    one batched (1, K) x (K, Nc) product per node."""

    ifs: object
    K: int
    Nc: int
    imgs: np.ndarray
    ders: np.ndarray
    B: np.ndarray

    def operator(self, t):
        return np.matmul((self.ders.T ** t)[:, None],
                         self.B.transpose(1, 0, 2))[:, 0]


def _is_count(n):
    """n is an integer, a numpy one too, and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _node_rows(ifs, K, Nc):
    """build_pressure_model's _rows: the letter_jets stream of letters
    1..K on the Nc Chebyshev nodes of I, and the rows walked so far, one
    (images, |derivatives|, B[a]) per letter a."""
    return ifs.letter_jets(K, cheb_points(*ifs.interval, Nc), 1), []


def build_pressure_model(ifs, K, Nc=32, _rows=None):
    """Collocated operator of the first K letters on Nc nodes of I.

    B[a, i, j] is the j-th node's cardinal function, the interpolant of
    the j-th unit vector (gauss_series), at psi_a of the i-th node. _rows is
    an escalation's _node_rows: each model extends its stream to its K
    instead of restarting at letter 1, and evaluates B in one eval01 pass
    over the images of the letters it adds only."""
    if not all(_is_count(n) and n >= 1 for n in (K, Nc)):
        raise DomainError(f"K and Nc must be integers >= 1, got K={K}, "
                          f"Nc={Nc}")
    stream, rows = _rows or _node_rows(ifs, K, Nc)
    new = [(val, np.abs(der))
           for val, der in itertools.islice(stream, K - len(rows))]
    lo, hi = ifs.interval
    cells = eval01(gauss_series(np.eye(Nc)), (np.reshape(
        [val for val, _ in new], (-1, Nc)).T - lo) / (hi - lo))
    cells = np.ascontiguousarray(cells.transpose(2, 1, 0))     # B[a]
    rows += [(*row, cell) for row, cell in zip(new, cells)]
    imgs, ders, B = (np.stack(col, axis=axis) for col, axis in
                     zip(zip(*rows[:K]), (0, 0, 1)))   # B laid out (i, a, j)
    if not np.all(ders > 0.0):
        raise DomainError("vanishing branch derivative on the node grid")
    # the rows view the new B, so an escalation holds one copy of B
    rows[:K] = [(*row[:2], B[:, a]) for a, row in enumerate(rows[:K])]
    return PressureModel(ifs, K, Nc, imgs, ders, B.transpose(1, 0, 2))


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
        if not 0.0 < lam < np.inf:     # NaN too
            raise PowerIterationStall(f"eigenvalue estimate {lam} not usable")
        v = np.divide(w, abs(w).max(), out=w)
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
    fn = functools.cache(lambda t: pressure_eigen(pm, t))   # probes reused
    vals = np.array([fn(t) for t in _PROBE_GRID])
    if not np.all(np.diff(vals) < 0.0):
        raise InvariantViolation("pressure not strictly decreasing on probes")
    signs = np.sign(vals)
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(changes) != 1:
        raise RootNotBracketed(
            f"{len(changes)} sign changes of log lambda on the probe grid"
        )
    i = changes[0]
    return brentq(fn, _PROBE_GRID[i], _PROBE_GRID[i + 1], xtol=root_tol)


def _eigenfunction(pm, t):
    """The (Nc, 2) stack of series on I of h and h' in x, h the
    interpolant through the Nc Gauss nodes of pm's collocation eigenvector
    at t, a polynomial; eval01 reads both in one pass.
    """
    _, v = _power_pair(pm.operator(t))
    lo, hi = pm.ifs.interval
    table = jet_table(gauss_series(v), 1)
    table[:, 1] /= hi - lo      # d/dx = (d/du) / (hi - lo)
    return table


class _OperatorBounds:
    """Collatz-Wielandt bounds on exp P(t) of the full transfer operator.

    For L_t h = sum_a |psi_a'|^t h o psi_a and any h > 0 on I,
    min_I (L_t h / h) <= exp P(t) <= max_I (L_t h / h). The ratio r_t over
    the first K letters and its derivative come from one second-order jet
    pass on _BRACKET_NX points of I, which reads (h, h') at the images as
    two more columns of each step. The pass folds every _FOLD_LETTERS
    letters into the first _TAYLOR_TERMS = p Taylor coefficients in
    t - t0, M_n = sum_a L_a^n / n! |psi_a'|^t0 (h o psi_a / h, curv_a,
    slope_a) with L_a = log|psi_a'| and d/dx |psi_a'|^t h(psi_a x) / h(x)
    = |psi_a'|^t (t * curv_a + slope_a), so no table has a row per letter
    and r_t is a degree-(p - 1) polynomial in t on three grid rows. Its
    Lagrange remainder is at most rho = (|t - t0| L_max)^p / p!
    exp(|t - t0| L_max), L_max = max |L_a|, times the folded sums of
    |psi_a'|^t0 |(h o psi_a / h, curv_a, slope_a)|, and the envelope
    widens by it, so every envelope is a bound. Where that widening passes
    _TAYLOR_TOL (a poor test function, or a Bowen root far from the
    crossings), the letters are streamed again and folded about t itself,
    and later t read the expansion nearest them. Between grid points r_t
    moves by at most (dx / 2) sup |r_t'|, taken as dx * max |r_t'| on the
    grid (twice the half-cell Lipschitz step). The letters beyond K raise
    the ratio by at most tail_bound(K, t) * max h / min h. h is the stack
    of series on I of (h, h') that _eigenfunction returns; t0 is the
    Bowen root, the first expansion's centre and the crossings' start.
    """

    def __init__(self, ifs, K, h, t0):
        lo, hi = ifs.interval
        self.x = np.linspace(lo, hi, _BRACKET_NX)
        self.hx, dhx = eval01(h, (self.x - lo) / (hi - lo))
        if not np.all(self.hx > 0.0):
            raise EigenvectorSignFailure(
                "bracket test function not positive on the grid of I"
            )
        self.ifs, self.K, self.h, self.t0 = ifs, K, h, t0
        self.dx = float(np.max(np.diff(self.x)))
        self.spread = float(self.hx.max() / self.hx.min())
        self.dlog_h = dhx / self.hx
        self.expansions = [self._expand(t0)]

    def _expand(self, t0):
        """One letter stream folded about t0: (t0, M, sums, L_max), M the
        (p, 3, grid) coefficients and sums the three maxima on the grid
        that _remainder scales: of the folded |psi'|^t0 |row| of the ratio
        and of curv, and of slope's plus the ratio's times |h' / h|."""
        M = np.zeros((_TAYLOR_TERMS, 3, _BRACKET_NX))
        sums = np.zeros((3, _BRACKET_NX))
        chunk = np.empty((4, _FOLD_LETTERS, _BRACKET_NX))
        l_max = 0.0
        stream = self.ifs.letter_jets(self.K, self.x, 2, self.h)
        for start in range(0, self.K, _FOLD_LETTERS):
            block = chunk[:, :min(_FOLD_LETTERS, self.K - start)]
            for (logd, hv, curv, slope), (_, d1, d2, (hval, dhval)) in zip(
                    block.transpose(1, 0, 2),
                    itertools.islice(stream, block.shape[1])):
                np.log(np.abs(d1), out=logd)
                np.divide(d2, d1, out=curv)
                curv *= hval
                curv /= self.hx
                np.divide(hval, self.hx, out=hv)
                np.multiply(d1, dhval, out=slope)
                slope /= self.hx
            logd, rows = block[0], block[1:]
            l_max = max(l_max, float(np.max(np.abs(logd))))
            w = np.multiply(t0, logd)
            np.exp(w, out=w)
            sums += np.einsum("ai,kai->ki", w, np.abs(rows))
            for n in range(_TAYLOR_TERMS):     # w = L^n / n! |psi'|^t0
                M[n] += np.einsum("ai,kai->ki", w, rows)
                w *= logd
                w /= n + 1
        sums[2] += sums[0] * np.abs(self.dlog_h)
        return t0, M, sums.max(axis=1), l_max

    def _remainder(self, expansion, t):
        """(widening of r_t, of |r_t'|) from expansion's remainder at t."""
        t0, _, (s_h, s_curv, s_slope), l_max = expansion
        z = abs(t - t0) * l_max
        rho = z ** _TAYLOR_TERMS / math.factorial(_TAYLOR_TERMS) * math.exp(z)
        return rho * s_h, rho * (abs(t) * s_curv + s_slope)

    def _expansion(self, t):
        """The expansion nearest t, first folded about t itself when the
        nearest one widens the envelope at t by more than _TAYLOR_TOL."""
        near = min(self.expansions, key=lambda e: abs(t - e[0]))
        widen_r, widen_dr = self._remainder(near, t)
        if widen_r + self.dx * widen_dr > _TAYLOR_TOL:
            near = self._expand(t)
            self.expansions.append(near)
        return near

    def ratio(self, t):
        """(r_t, r_t') on the grid, over the first K letters, from the
        expansion nearest t: within its _remainder at t of the sums."""
        t0, M, *_ = self._expansion(t)
        r, curv, slope = functools.reduce(lambda v, m: v * (t - t0) + m,
                                          M[::-1])     # Horner in t - t0
        return r, t * curv + slope - r * self.dlog_h

    def envelope(self, t):
        """(min r_t - slack, max r_t + slack): r_t over all of I."""
        r, dr = self.ratio(t)
        widen_r, widen_dr = self._remainder(self._expansion(t), t)
        slack = self.dx * (float(np.max(np.abs(dr))) + widen_dr) + widen_r
        return float(r.min()) - slack, float(r.max()) + slack

    def bracket(self):
        """Roots of log lower = 0 and log upper = 0 near t0, rounded out.

        The lower bound's root is at most the dimension of the full system
        and the upper bound's root at least it; brentq places each within
        _BRACKET_XTOL, so each moves outward by that much. The roots are
        located as crossings of 1, which keeps a non-positive lower bound
        (a poor test function) on the negative side instead of at log 0.
        """
        env = functools.cache(self.envelope)    # once per t for both
        lo = _crossing(lambda t: env(t)[0] - 1.0, self.t0)
        hi = _crossing(lambda t: (env(t)[1] + self.ifs.tail_bound(
            self.K, t) * self.spread) - 1.0, self.t0)
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
    any object with the IFS protocol (interval, Kmax, letter_jets,
    tail_bound). With K unset the truncation starts at min(32, Kmax) and
    auto-escalates until the alphabet tail at the root is below 1e-8,
    doubling K where the tail levels do not decay yet (RatioNotContracting);
    only at Kmax does escalation fail, with TailTooFat or
    RatioNotContracting. An explicitly pinned K is honored as given.
    Escalation extends one node stream: each model reuses the node jets of
    the letters earlier models walked.

    With with_bracket, [hd_lo, hd_hi] is the hull of hd and the
    Collatz-Wielandt bracket of the full system, tested with the final
    model's eigenvector at hd; a root more than root_tol outside that
    bracket raises InvariantViolation. Without it hd_lo = hd_hi = hd.
    """
    if isinstance(root_tol, bool) or not isinstance(
            root_tol, (int, float, np.integer, np.floating)) or \
            not 0.0 < root_tol < _PROBE_STEP:
        raise DomainError(f"root_tol must be a number in (0, {_PROBE_STEP}), "
                          f"below the probe grid's spacing, got {root_tol!r}")
    t_start = time.perf_counter()
    ifs = build_presentation(obj) if isinstance(obj, UnimodalSystem) else obj
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
        lo, hi = _OperatorBounds(ifs, K, _eigenfunction(pm, hd),
                                 hd).bracket()
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
    """Prepend each of the letters 1..K to every word, letter-major.

    Column w of pos holds phi_w at the sample points and column w of logd
    log|Dphi_w| there. Word a w lands in column a * nw + w, nw being the
    number of words, so columns stay in lexicographic order; it holds
    psi_a(pos[:, w]) and log|psi_a'(pos[:, w])| + logd[:, w] (the chain
    rule), letter a's block of _letter_blocks.
    """
    ns, nw = pos.shape
    new_pos, new_logd = np.empty((ns, K, nw)), np.empty((ns, K, nw))
    for a, (val, ld) in enumerate(_letter_blocks(ifs, K, pos, logd)):
        new_pos[:, a] = val
        new_logd[:, a] = ld
    return new_pos.reshape(ns, K * nw), new_logd.reshape(ns, K * nw)


def _letter_blocks(ifs, K, pos, logd, q=None):
    """The words a w of _extend_words(ifs, K, pos, logd), one letter a at a
    time: (samples, words) blocks of psi_a(pos) and log|psi_a'(pos)| + logd
    (+ q(psi_a pos) for a series q on I), columns a * nw ... (a + 1) * nw of
    the tables _extend_words returns, so that a walk's last level is reduced
    per letter and never held whole. The jets are read, never written: the
    stream steps from them to the next letter.
    """
    ns, nw = pos.shape
    for val, der, *qv in ifs.letter_jets(K, pos.ravel(), 1, q):
        new_logd = np.log(np.abs(der)).reshape(ns, nw)
        new_logd += logd
        for v in qv:    # q(psi_a pos), given q
            new_logd += v.reshape(ns, nw)
        yield val.reshape(ns, nw), new_logd


def _word_tables(ifs, K, n):
    """Per-word sup/inf of the adapted-metric log derivative at depth n.

    The walk prepends letters from the empty word, tracking phi_w(x) and
    log|Dphi_w(x)| at the sample points. In the metric exp(q) the log
    derivative is log|Dphi_w(x)| + q(phi_w x) - q(x), since q telescopes
    along the word, so q, fitted on the depth-1 tables, is added once: -q(x)
    at the walk's start, q(phi_w x) by the letter stream of the last level,
    whose blocks (_letter_blocks) reduce to their words' sup and inf at
    once. Returns the depth-n sup and inf, the depth-1 sup, and delta_q.
    """
    if K ** n > _WORD_BUDGET:
        raise DomainError(f"{K}^{n} words exceed the {_WORD_BUDGET} budget")
    lo, hi = ifs.interval
    xs = _sample_points(ifs.interval, _MORAN_NSAMP)
    vals, lds = _extend_words(ifs, K, xs[:, None], np.zeros((xs.size, 1)))
    q, delta_q = _fit_adapted_metric(ifs.interval, xs, vals.T, lds.T)
    qx = eval01(q, (xs - lo) / (hi - lo))[:, None]
    ld1 = eval01(q, (vals - lo) / (hi - lo)) - qx + lds
    s1_sup = ld1.max(axis=0)
    if n == 1:
        return s1_sup, ld1.min(axis=0), s1_sup, delta_q
    pos, logd = vals, lds - qx
    for _ in range(n - 2):
        pos, logd = _extend_words(ifs, K, pos, logd)
    sup, inf = np.full((2, K, pos.shape[1]), [[[-np.inf]], [[np.inf]]])
    step = max(1, _MORAN_POINTS // pos.shape[1])    # samples per stream
    for r in range(0, len(pos), step):
        blocks = _letter_blocks(ifs, K, pos[r:r + step], logd[r:r + step], q)
        for a, (_, ld) in enumerate(blocks):
            np.maximum(sup[a], ld.max(axis=0), out=sup[a])
            np.minimum(inf[a], ld.min(axis=0), out=inf[a])
    return sup.ravel(), inf.ravel(), s1_sup, delta_q


@dataclass(frozen=True)
class MoranBracket:
    t_lo: float
    t_hi: float
    n: int
    K: int
    delta_q: float

    def __iter__(self):
        return iter((self.t_lo, self.t_hi))

    @property
    def width(self):
        return self.t_hi - self.t_lo


def _logsumexp(a, out=None):
    """log sum exp(a) over a 1-d array, as scipy.special.logsumexp rounds.

    The m entries equal to the maximum are counted apart from the rest:
    log1p(sum of the rest's exp(a - a_max) / m) + log m + a_max. out, a
    buffer of a's shape (a itself too), holds the terms instead of fresh
    temporaries.
    """
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    if out is None:
        out = np.empty_like(a)
    np.copyto(out, a)
    out[top] = -np.inf
    out -= a_max
    s = np.exp(out, out=out).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def _log_root(fn, t_floor):
    """First root of fn on the _MORAN_SCAN grid, placed by brentq, which
    starts from the scan's values at the bracket's ends (fn is cached).

    fn is positive below t_floor, so no scan point below it can end a sign
    change: the scan starts two grid points below the first point at or
    above t_floor (one to bracket a root just above the floor, one to
    spare for the floor's roundoff) and finds the bracket a full scan
    finds. A point where fn raises RatioNotContracting or OverflowError
    brackets nothing.
    """
    fn = functools.cache(fn)
    start = max(int(np.searchsorted(_MORAN_SCAN, t_floor)) - 2, 0)
    for a, b in itertools.pairwise(_MORAN_SCAN[start:]):
        try:
            if fn(a) > 0.0 >= fn(b):
                return brentq(fn, a, b, xtol=_MORAN_XTOL)
        except (RatioNotContracting, OverflowError):
            continue
    raise RootNotBracketed("Moran sum never crosses 1 on the scan range")


def moran_oracle(ifs, n, K=None):
    """Independent dimension bracket from depth-n sup/inf Moran sums.

    Roots t of sum over words of (sup resp. inf of |Dphi_w| in the adapted
    metric exp(q), delta_q the oscillation of q on I)^t = 1. The truncated
    alphabet's missing letters inflate the sup-side sum by
    (p_1 + T)^n - p_1^n with T the tail bound carried into the adapted
    metric, so the upper root bounds the full-alphabet root. ifs is an IFS,
    not a UnimodalSystem; n is an integer in 1..5 and K one in
    1..min(64, Kmax), by default min(24, Kmax). brentq places both roots
    within 1e-10.

    The root scans start from proven floors. By Jensen, the log of the
    inf-side sum over N words is at least log N + t * mean(s_inf), which is
    positive below log N / -mean(s_inf). The sup-side sum is at least the
    inf-side one (s_sup >= s_inf word by word), and that one is positive
    below t_lo, since its log is convex in t and positive at 0.
    """
    if not _is_count(n) or not 1 <= n <= 5:
        raise DomainError(
            f"moran_oracle needs an integer n in 1..5, got {n!r}")
    k_max = min(64, ifs.Kmax)
    if K is None:
        K = min(24, ifs.Kmax)
    if not _is_count(K) or not 1 <= K <= k_max:
        raise DomainError(
            f"moran_oracle needs an integer K in 1..{k_max}, got {K!r}")
    s_sup, s_inf, s1_sup, delta_q = _word_tables(ifs, K, n)
    buf = np.empty_like(s_sup)      # the scan's terms, one table for all t

    def p_inf(t):
        return _logsumexp(np.multiply(t, s_inf, out=buf), out=buf)

    def p_sup(t):
        base = _logsumexp(np.multiply(t, s_sup, out=buf), out=buf)
        tail = ifs.tail_bound(K, t) * np.exp(t * delta_q)
        if tail == 0.0:
            return base
        p1 = np.exp(_logsumexp(t * s1_sup))
        return float(np.log(np.exp(base) + (p1 + tail) ** n - p1 ** n))

    mean = float(s_inf.mean())
    jensen = np.log(s_inf.size) / -mean if mean < 0.0 else np.inf
    t_lo = _log_root(p_inf, jensen)
    t_hi = _log_root(p_sup, t_lo)
    if t_hi < t_lo:
        raise InvariantViolation(
            f"Moran roots inverted: t_lo={t_lo} > t_hi={t_hi}"
        )
    return MoranBracket(t_lo, t_hi, n, K, delta_q)


@dataclass(frozen=True)
class CylinderMeasure:
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
    feed the quadrature in the conformality check. The rows are the
    K^depth words over letters 1..K, K = pm.K, in lexicographic order.
    depth is an integer in 1..4 and t_star in (0, 2], as pressure_eigen
    accepts.
    """
    if not _is_count(depth) or not 1 <= depth <= 4:
        raise DomainError(
            f"cylinder_measure needs an integer depth in 1..4, got {depth!r}")
    if not 0.0 < t_star <= 2.0:
        raise DomainError(f"cylinder_measure needs t_star in (0, 2], "
                          f"got {t_star}")
    if pm.K ** depth * pm.Nc > 8_000_000:
        raise DomainError(
            f"{pm.K}^{depth} cylinders on {pm.Nc} nodes exceed the budget"
        )
    lam, h, nu = _leading_pair_both(pm, t_star)
    Z = float(nu.sum())
    if Z <= 0.0:
        raise EigenvectorSignFailure("left functional has non-positive mass")

    # the last level's (nodes, words) blocks: the model's own rows at depth
    # 1, else one letter's words at a time, so no (Nc, K^depth) table is
    # built
    pos, logd = pm.imgs.T, np.log(pm.ders).T
    blocks = [(pos, logd)]
    if depth > 1:
        for _ in range(depth - 2):
            pos, logd = _extend_words(pm.ifs, pm.K, pos, logd)
        blocks = _letter_blocks(pm.ifs, pm.K, pos, logd)
    weight, xbar, m2 = (np.empty(pm.K ** depth) for _ in range(3))
    for a, (val, ld) in enumerate(blocks):
        words = slice(a * val.shape[1], (a + 1) * val.shape[1])
        ld *= t_star
        core = np.exp(ld, out=ld)
        weight[words] = nu @ core
        xbar[words] = nu @ (core * val) / weight[words]
        m2[words] = nu @ (core * (val - xbar[words]) ** 2) / weight[words]
    raw = weight / (Z * lam ** depth)
    raw_mass = float(raw.sum())
    if np.any(raw <= 0.0):
        raise EigenvectorSignFailure("non-positive cylinder weight")
    mu = raw / raw_mass
    return CylinderMeasure(mu, xbar, m2, lam, raw_mass)


def conformality_residual(pm, t_star, depth=3):
    """max over letters i, words w of |m(i w) - int_{cyl w} |Dpsi_i|^t dm|.

    The defining identity of the t-conformal measure, checked on every
    depth-(n-1) cylinder.  The integral is quadratured over the depth-n
    sub-partition {cyl(w j)}: barycenter rule plus second-moment curvature
    correction per sub-cell.  A single-cell midpoint rule misses by ~1e-2
    on the widest cylinders; partitioning brings the error under 1e-6.
    """
    if not _is_count(depth) or depth < 2:
        raise DomainError(
            f"conformality check needs an integer depth >= 2, got {depth!r}")
    fine = cylinder_measure(pm, t_star, depth)
    # words are lexicographic: row u of raw.reshape(-1, K) holds the
    # children u j of u, and row i of raw.reshape(K, -1) the words i u
    raw = fine.mu * fine.raw_mass
    worst = 0.0
    for i, (_, d1, d2, d3) in enumerate(
            pm.ifs.letter_jets(pm.K, fine.xbar, 3)):
        F = np.abs(d1) ** t_star
        F2 = F * t_star * ((t_star - 1.0) * (d2 / d1) ** 2 + d3 / d1)
        term = (F + 0.5 * F2 * fine.m2) * raw
        rhs = term.reshape(-1, pm.K).sum(axis=1)
        lhs = fine.lam * raw.reshape(pm.K, -1)[i]
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
    if any(not _is_count(ell) or ell % 2 or ell <= 0 for ell in ells) or \
            sorted(ells) != ells or len(set(ells)) != len(ells):
        raise DomainError(
            f"sweep needs strictly ascending even integer ells, got {ells}")
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
