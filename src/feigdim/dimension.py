"""Pressure, Bowen root, Moran brackets, conformal measure, and the ell-sweep.

The pressure of the presentation system is realized as the leading
eigenvalue of a collocated weighted composition operator on Chebyshev
nodes; the Hausdorff dimension is its Bowen root. Independent Moran-type
sup/inf brackets over finite words certify the root, with the truncated
alphabet's tail folded into the upper bracket as additive inflation.

Brackets are computed in an adapted conformal metric: a least-squares
coboundary flattens the per-branch derivative variation, which shrinks the
sup/inf gap by more than an order of magnitude while every bound stays a
bound (the dimension and the bracket property are metric-independent).

The engine consumes any object with the IFS protocol: `interval` (lo, hi),
`Kmax` (alphabet size), `letters(K)` (the first K letters), `map_eval(letter,
x, nder)` (jets of one map) and `tail_bound(K, t)` (bound on the letters
beyond K). PresentationSystem streams its jets through iter_letter_jets.
"""
import csv
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lstsq
from scipy.optimize import brentq
from scipy.special import logsumexp

from .cheb import bary_weights, cheb_points, interp_matrix, interp_values
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
from .fixedpoint import cached_solve
from .presentation import PresentationSystem, build_presentation, iter_letter_jets
from .unimodal import UnimodalSystem, build_system

_PROBE_GRID = np.linspace(0.1, 1.0, 10)
_WORD_BUDGET = 1_500_000

CSV_HEADER = ["ell", "hd", "hd_lo", "hd_hi", "alpha", "tau", "K", "Nc",
              "tail_bound", "runtime_s"]


@dataclass(frozen=True, eq=False)
class PressureModel:
    """Collocated transfer operator data for one truncation level K."""

    ifs: object
    K: int
    Nc: int
    nodes: np.ndarray
    weights: np.ndarray
    imgs: np.ndarray
    ders: np.ndarray
    B: np.ndarray

    def operator(self, t):
        return np.einsum("ai,aij->ij", self.ders ** t, self.B)

    def tail_t(self, t):
        return float(self.ifs.tail_bound(self.K, t))


def _letter_jets(ifs, K, x, nder):
    """Stream (letter, jets) over ifs.letters(K) without storing them all."""
    if isinstance(ifs, PresentationSystem):
        yield from iter_letter_jets(ifs, K, x, nder)
    else:
        x = np.asarray(x, dtype=float)
        for a in ifs.letters(K):
            yield a, ifs.map_eval(a, x, nder)


def _jet_list(ifs, K, x, nder):
    return [jets for _, jets in _letter_jets(ifs, K, x, nder)]


def build_pressure_model(ifs, K=None, Nc=32):
    if K is None:
        K = min(32, ifs.Kmax)
    lo, hi = ifs.interval
    nodes = cheb_points(lo, hi, Nc)
    weights = bary_weights(Nc)
    tables = _jet_list(ifs, K, nodes, 1)
    imgs = np.stack([tab[0] for tab in tables])
    ders = np.abs(np.stack([tab[1] for tab in tables]))
    if not np.all(ders > 0.0):
        raise DomainError("vanishing branch derivative on the node grid")
    B = np.stack([interp_matrix(nodes, weights, row) for row in imgs])
    return PressureModel(ifs, K, Nc, nodes, weights, imgs, ders, B)


def _power_pair(M, tol=1e-12, max_iter=5000, positive=True):
    """Leading eigenpair by power iteration to relative tolerance tol.

    The right eigenvector approximates a positive eigenfunction and must be
    one-signed; a left eigenvector is a quadrature functional whose node
    weights may legitimately oscillate, so positivity is not demanded there.
    """
    v = np.ones(M.shape[0])
    lam_old = np.inf
    for _ in range(max_iter):
        w = M @ v
        lam = float(w @ v) / float(v @ v)
        if not np.isfinite(lam) or lam <= 0.0:
            raise PowerIterationStall(f"eigenvalue estimate {lam} not usable")
        v = w / np.max(np.abs(w))
        if abs(lam - lam_old) <= tol * abs(lam):
            if not positive:
                return lam, (-v if v.sum() < 0.0 else v)
            if v.min() * v.max() <= 0.0:
                raise EigenvectorSignFailure(
                    "leading eigenvector changes sign on the node grid"
                )
            return lam, np.abs(v)
        lam_old = lam
    raise PowerIterationStall(f"no convergence in {max_iter} iterations")


def pressure_eigen(pm, t, tol=1e-12, max_iter=5000):
    """log of the leading eigenvalue of the collocated operator at t."""
    if not 0.0 < t <= 2.0:
        raise DomainError(f"pressure_eigen needs t in (0, 2], got {t}")
    lam, _ = _power_pair(pm.operator(t), tol, max_iter)
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
    return float(brentq(lambda t: pressure_eigen(pm, t),
                        _PROBE_GRID[i], _PROBE_GRID[i + 1],
                        xtol=root_tol, rtol=8.9e-16))


def _default_kmax(ell):
    return int(40 * max(1.0, ell / 8.0))


def _as_ifs(obj):
    if isinstance(obj, UnimodalSystem):
        lam_tilde = obj.tau ** (-1.0 / obj.ell)
        k_need = int(np.ceil(44.0 / abs(np.log(lam_tilde)))) + 20
        kmax = max(_default_kmax(obj.ell), min(400, k_need))
        return build_presentation(obj, Kmax=kmax)
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


def hausdorff_dimension(obj, K=None, Nc=32, root_tol=1e-8, tail_budget=1e-8,
                        bracket_depth=3, with_bracket=True):
    """Bowen root of the pressure plus an independent Moran bracket.

    Accepts a built UnimodalSystem (a presentation is constructed with
    enough alphabet headroom) or any object exposing the IFS protocol
    (interval, Kmax, letters, map_eval, tail_bound). With K unset the
    truncation starts at min(32, Kmax) and auto-escalates until the alphabet
    tail at the root is below tail_budget; an explicitly pinned K is honored
    as given.
    """
    t_start = time.perf_counter()
    ifs = _as_ifs(obj)
    pinned = K is not None
    if K is None:
        K = min(32, ifs.Kmax)

    hd = tail = None
    for _ in range(4):
        pm = build_pressure_model(ifs, K=K, Nc=Nc)
        hd = _bowen_root(pm, root_tol)
        tail = pm.tail_t(hd)
        if pinned or tail < tail_budget:
            break
        if K >= ifs.Kmax:
            raise TailTooFat(
                f"tail {tail:.3e} > {tail_budget:.1e} with the alphabet "
                f"exhausted at K={K}"
            )
        # predictive jump: per-letter level ratio from two adjacent tails
        r = ifs.tail_bound(K, hd) / ifs.tail_bound(K - 1, hd)
        r = min(max(r, 1e-6), 0.999)
        need = int(np.ceil(np.log(0.2 * tail_budget / tail) / np.log(r)))
        K = min(ifs.Kmax, K + max(10, need))
    else:
        raise TailTooFat(
            f"tail {tail:.3e} > {tail_budget:.1e} after escalation to K={K}"
        )

    if not 0.0 < hd < 1.0:
        raise InvariantViolation(f"Bowen root {hd} outside (0, 1)")

    if with_bracket:
        br = moran_oracle(ifs, n=bracket_depth, K=min(K, 64, ifs.Kmax),
                          root_tol=root_tol)
        hd_lo, hd_hi = br.t_lo, br.t_hi
        if not (hd_lo - 1e-9 <= hd <= hd_hi + 1e-9):
            raise InvariantViolation(
                f"Bowen root {hd:.9f} outside the Moran bracket "
                f"[{hd_lo:.9f}, {hd_hi:.9f}]"
            )
    else:
        hd_lo = hd_hi = hd

    return DimensionResult(hd, hd_lo, hd_hi, K, Nc, tail,
                           time.perf_counter() - t_start)


def _sample_points(interval, nsamp):
    lo, hi = interval
    theta = np.pi * np.arange(nsamp) / (nsamp - 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


class _AdaptedMetric:
    """Least-squares coboundary q with sigma = exp(q) flattening distortion.

    Solves min over (q, per-letter constants c_a) of the squared residuals
    log|psi_a'(x)| + q(psi_a x) - q(x) - c_a over letters and samples, with
    mean(q) pinned to zero; q lives on a small Chebyshev grid on I and is
    evaluated anywhere by barycentric interpolation.
    """

    def __init__(self, interval, qnodes, qw, qvals):
        self.interval = interval
        self.qnodes = qnodes
        self.qw = qw
        self.qvals = qvals
        grid = np.linspace(interval[0], interval[1], 512)
        g = self(grid)
        self.delta_q = float(g.max() - g.min())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = interp_values(self.qnodes, self.qw, self.qvals, x.ravel())
        return flat.reshape(x.shape)


def _fit_adapted_metric(interval, xs, vals, lds, nq=16):
    qnodes = cheb_points(interval[0], interval[1], nq)
    qw = bary_weights(nq)
    na, ns = lds.shape
    im_xs = interp_matrix(qnodes, qw, xs)
    rows = np.zeros((na * ns + 1, nq + na))
    rhs = np.zeros(na * ns + 1)
    for a in range(na):
        im_val = interp_matrix(qnodes, qw, vals[a])
        block = slice(a * ns, (a + 1) * ns)
        rows[block, :nq] = im_val - im_xs
        rows[block, nq + a] = -1.0
        rhs[block] = -lds[a]
    rows[-1, :nq] = 1.0 / nq
    # gelsy (QR with column pivoting) agrees with the SVD driver to roundoff
    # on this full-rank system and stays cheap under multithreaded OpenBLAS
    sol = lstsq(rows, rhs, lapack_driver="gelsy")[0]
    return _AdaptedMetric(interval, qnodes, qw, sol[:nq])


def _word_tables(ifs, K, n, nsamp, metric):
    """Per-word sup/inf of the (metric-weighted) log derivative at depth n.

    Words are extended by prepending letters, so position arrays track
    phi_w(x) at the sample points and the coboundary telescopes to
    log|Dphi_w(x)| + q(phi_w x) - q(x).
    """
    na = len(ifs.letters(K))
    if na ** n > _WORD_BUDGET:
        raise DomainError(
            f"{na}^{n} words exceed the {_WORD_BUDGET} word budget"
        )
    xs = _sample_points(ifs.interval, nsamp)
    tabs = _jet_list(ifs, K, xs, 1)
    vals = np.stack([tab[0] for tab in tabs])
    lds = np.log(np.abs(np.stack([tab[1] for tab in tabs])))

    qfun = None
    if metric == "adapted":
        qfun = _fit_adapted_metric(ifs.interval, xs, vals, lds)
        lds = lds + qfun(vals) - qfun(xs)[None, :]

    pos = vals.copy()
    ld = lds.copy()
    for _ in range(n - 1):
        nw = pos.shape[0]
        new_pos = np.empty((na * nw, nsamp))
        new_ld = np.empty_like(new_pos)
        q_pos = qfun(pos) if qfun is not None else None
        for a, (_, (val_a, der_a)) in enumerate(_letter_jets(ifs, K, pos, 1)):
            step = np.log(np.abs(der_a))
            if qfun is not None:
                step = step + qfun(val_a) - q_pos
            block = slice(a * nw, (a + 1) * nw)
            new_pos[block] = val_a
            new_ld[block] = step + ld
        pos, ld = new_pos, new_ld
    s1_sup = lds.max(axis=1)
    return ld.max(axis=1), ld.min(axis=1), s1_sup, qfun


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


def _log_root(fn, lo=0.02, hi=1.4, xtol=1e-12):
    grid = np.linspace(lo, hi, 29)
    prev_t, prev_v = None, None
    for t in grid:
        try:
            v = fn(t)
        except (RatioNotContracting, OverflowError):
            prev_t, prev_v = None, None
            continue
        if prev_v is not None and prev_v > 0.0 >= v:
            return float(brentq(fn, prev_t, t, xtol=xtol, rtol=8.9e-16))
        prev_t, prev_v = t, v
    raise RootNotBracketed("Moran sum never crosses 1 on the scan range")


def moran_oracle(ifs, n, K=None, metric="adapted", nsamp=9, root_tol=1e-10,
                 include_tail=True):
    """Independent dimension bracket from depth-n sup/inf Moran sums.

    Roots t of sum over words of (sup resp. inf of |Dphi_w| in the chosen
    metric)^t = 1. The truncated alphabet's missing letters inflate the
    sup-side sum by (p_1 + T)^n - p_1^n with T the tail bound carried into
    the adapted metric, so the upper root bounds the full-alphabet root.
    K defaults to min(24, Kmax).
    """
    if not 1 <= n <= 5:
        raise DomainError(f"moran_oracle needs 1 <= n <= 5, got {n}")
    ifs = _as_ifs(ifs)
    if K is None:
        K = min(24, ifs.Kmax)
    if K > 64:
        raise DomainError(f"K = {K} exceeds the budget 64")
    s_sup, s_inf, s1_sup, qfun = _word_tables(ifs, K, n, nsamp, metric)
    delta_q = qfun.delta_q if qfun is not None else 0.0

    def p_inf(t):
        return float(logsumexp(t * s_inf))

    def p_sup(t):
        base = float(logsumexp(t * s_sup))
        if not include_tail:
            return base
        tail = ifs.tail_bound(K, t) * np.exp(t * delta_q)
        if tail == 0.0:
            return base
        p1 = np.exp(float(logsumexp(t * s1_sup)))
        return float(np.log(np.exp(base) + (p1 + tail) ** n - p1 ** n))

    t_lo = _log_root(p_inf, xtol=root_tol)
    t_hi = _log_root(p_sup, xtol=root_tol)
    if t_hi < t_lo:
        raise InvariantViolation(
            f"Moran roots inverted: t_lo={t_lo} > t_hi={t_hi}"
        )
    return MoranBracket(t_lo, t_hi, n, K, metric, delta_q)


def pressure_sums(pm, t, n, nsamp=9):
    """(lower, upper) bracket of (1/n) log p_n(t) over the truncated system.

    Upper uses per-word sup-norms of |Dphi_w| (submultiplicative, so the
    value dominates the truncated pressure), lower uses infima.
    """
    if not 1 <= n <= 6:
        raise DomainError(f"pressure_sums needs 1 <= n <= 6, got {n}")
    s_sup, s_inf, _, _ = _word_tables(pm.ifs, pm.K, n, nsamp, "euclid")
    lower = float(logsumexp(t * s_inf)) / n
    upper = float(logsumexp(t * s_sup)) / n
    return lower, upper


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
        raise DomainError(f"cylinder_measure needs 1 <= depth <= 4")
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

    words = [(a,) for a in range(na)]
    pos = pm.imgs.copy()
    der = pm.ders.copy()
    for _ in range(depth - 1):
        nw = pos.shape[0]
        new_words = []
        new_pos = np.empty((na * nw, pm.Nc))
        new_der = np.empty_like(new_pos)
        for a, (_, (val_a, der_a)) in enumerate(
                _letter_jets(pm.ifs, pm.K, pos, 1)):
            block = slice(a * nw, (a + 1) * nw)
            new_pos[block] = val_a
            new_der[block] = np.abs(der_a) * der
            new_words.extend((a,) + w for w in words)
        words, pos, der = new_words, new_pos, new_der

    core = der ** t_star
    weight = core @ nu
    raw = weight / (Z * lam ** depth)
    raw_mass = float(raw.sum())
    if np.any(raw <= 0.0):
        raise EigenvectorSignFailure("non-positive cylinder weight")
    mu = raw / raw_mass
    xbar = (core * pos) @ nu / weight
    m2 = (core * (pos - xbar[:, None]) ** 2) @ nu / weight
    out_words = [tuple(letters[a] for a in w) for w in words]
    return CylinderMeasure(out_words, mu, xbar, m2, lam, raw_mass)


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
    letters = pm.ifs.letters(pm.K)
    na = len(letters)
    index = {w: n for n, w in enumerate(fine.words)}
    prefixes = [w[1:] for w in fine.words[: na ** (depth - 1)]]
    idx_app = np.array([[index[u + (j,)] for j in letters] for u in prefixes])
    raw = fine.mu * fine.raw_mass
    worst = 0.0
    for i, (_, d1, d2, d3) in _letter_jets(pm.ifs, pm.K, fine.xbar, 3):
        F = np.abs(d1) ** t_star
        F2 = F * t_star * ((t_star - 1.0) * (d2 / d1) ** 2 + d3 / d1)
        term = (F + 0.5 * F2 * fine.m2) * raw
        rhs = term[idx_app].sum(axis=1)
        lhs = fine.lam * raw[[index[(i,) + u] for u in prefixes]]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass
class DimensionReport:
    """Dimension rows, dicts keyed by CSV_HEADER, and (ell, message) failures."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, sys, res):
        """Append and return the row of the DimensionResult res for sys."""
        row = {"ell": sys.ell, "hd": res.hd, "hd_lo": res.hd_lo,
               "hd_hi": res.hd_hi, "alpha": sys.fp.alpha, "tau": sys.tau,
               "K": res.K, "Nc": res.Nc, "tail_bound": res.tail_t,
               "runtime_s": res.runtime_s}
        self.rows.append(row)
        return row

    @staticmethod
    def cells(row):
        """CSV cells of one row: counts as integers, reals to 12 digits."""
        return [str(row[key]) if key in ("ell", "K", "Nc")
                else f"{row[key]:.12g}" for key in CSV_HEADER]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(self.cells(row) for row in self.rows)
        return path

    def diagnostics(self):
        out = {"delta_tau": [], "delta_hd": []}
        for prev, cur in zip(self.rows, self.rows[1:]):
            out["delta_tau"].append(abs(cur["tau"] - prev["tau"]))
            out["delta_hd"].append(cur["hd"] - prev["hd"])
        return out


def sweep(ells, degree=40, K=None, Nc=32, root_tol=1e-8, tol=1e-10,
          cache_dir=None, progress=None):
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
            report.add(sys, hausdorff_dimension(sys, K=K, Nc=Nc,
                                                root_tol=root_tol))
        except FeigdimError as exc:
            report.failures.append((ell, f"{type(exc).__name__}: {exc}"))
        if progress is not None:
            progress(ell, report)
    return report
