"""Solver for the renormalization fixed-point equation alpha g^p(x) = g(alpha x).

The unknown map is written g(x) = E(|x|^ell) with E a diffeomorphism of
[0,1], expanded in shifted Chebyshev polynomials of u = |x|^ell. In the
E-variable the period-doubling equation becomes

    alpha * E(E(u)^ell) = E(tau * u),   tau = alpha^ell,

collocated at fixed Chebyshev-Gauss nodes: the outer argument is placed at
nodes u_i in (0,1) via the substitution u = v / tau, so the collocation rows
read alpha * E(E(v_i/tau)^ell) - E(v_i) = 0 with the normalization row
E(0) = 1 closing the square Newton system in (coeffs, alpha).

cached_solve is the one cache policy: every command and the sweep get their
fixed points through it.
"""
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cheb
from .errors import (
    CorruptFile,
    DegenerateJacobian,
    DomainError,
    FeigdimError,
    InvariantViolation,
    NoConvergence,
    SchemaMismatch,
    UnsupportedCombinatorics,
)

SCHEMA = "feigdim-fp-1"
BASIS = "chebyshev-u"


@dataclass(frozen=True)
class CombinatoricsType:
    """Renormalization combinatorics: period p and orientation."""

    p: int = 2
    orientation: str = "reversing"

    def validate(self):
        if self.p != 2 or self.orientation != "reversing":
            raise UnsupportedCombinatorics(
                f"only p=2 orientation=reversing is supported, "
                f"got p={self.p} orientation={self.orientation!r}"
            )


PERIOD_DOUBLING = CombinatoricsType(2, "reversing")


@dataclass(frozen=True, eq=False)
class FixedPointMap:
    """Solved pair (g, alpha) stored through the diffeomorphism E.

    e_coeffs are shifted-Chebyshev coefficients of E on [0,1]; alpha is the
    signed rescaling (negative for reversing types); residual is the sup
    defect of the defining equation on the validation grid.
    """

    combinatorics: CombinatoricsType
    ell: int
    alpha: float
    e_coeffs: np.ndarray
    degree: int
    residual: float
    solver_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        coeffs = np.asarray(self.e_coeffs, dtype=float)
        object.__setattr__(self, "e_coeffs", coeffs)
        dc = [coeffs]
        for _ in range(3):
            dc.append(cheb.der01(dc[-1]))
        object.__setattr__(self, "_dcoeffs", dc)

    @property
    def tau(self):
        return abs(self.alpha) ** self.ell

    def E(self, u, deriv=0):
        """E and derivatives in u, analytic through the basis."""
        if not 0 <= deriv <= 3:
            raise DomainError(f"deriv order {deriv} outside 0..3")
        return cheb.eval01(self._dcoeffs[deriv], u)


def _abs_pow(x, ell):
    """|x|^ell, routed through exp/log for small |x| to dodge underflow."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if ell == 0:
        return np.ones_like(ax)
    out = np.zeros_like(ax)
    small = (ax < 1e-3) & (ax > 0.0)
    big = ax >= 1e-3
    out[big] = ax[big] ** ell
    if small.any():
        out[small] = np.exp(ell * np.log(ax[small]))
    return out


def _residual_vec(coeffs, alpha, ell, nodes):
    """Collocation residual rows plus the normalization row."""
    tau = alpha ** ell
    u = nodes / tau
    Eu = cheb.eval01(coeffs, u)
    F = alpha * cheb.eval01(coeffs, Eu ** ell) - cheb.eval01(coeffs, nodes)
    return np.append(F, cheb.eval01(coeffs, 0.0) - 1.0)


def _jacobian(coeffs, alpha, ell, nodes, degree):
    tau = alpha ** ell
    u = nodes / tau
    dcoeffs = cheb.der01(coeffs)
    Eu = cheb.eval01(coeffs, u)
    v = Eu ** ell
    dE_u = cheb.eval01(dcoeffs, u)
    dE_v = cheb.eval01(dcoeffs, v)
    Phi_u = cheb.vander01(u, degree)
    Phi_v = cheb.vander01(v, degree)
    Phi_n = cheb.vander01(nodes, degree)
    w = dE_v * ell * Eu ** (ell - 1)
    Jc = alpha * (Phi_v + w[:, None] * Phi_u) - Phi_n
    du_da = -nodes * tau ** -2 * ell * alpha ** (ell - 1)
    Ja = cheb.eval01(coeffs, v) + alpha * w * dE_u * du_da
    norm_row = np.append(cheb.vander01(np.array([0.0]), degree)[0], 0.0)
    return np.vstack([np.hstack([Jc, Ja[:, None]]), norm_row])


def _validation_defect(coeffs, alpha, ell, npts=512):
    """Sup of |alpha g(g(x)) - g(alpha x)| on x in [0, 1/|alpha|]."""
    x = np.linspace(0.0, 1.0 / abs(alpha), npts)
    gx = cheb.eval01(coeffs, x ** ell)
    ggx = cheb.eval01(coeffs, np.abs(gx) ** ell)
    gax = cheb.eval01(coeffs, np.abs(alpha * x) ** ell)
    return float(np.max(np.abs(alpha * ggx - gax)))


def _check_invariants(coeffs, alpha, ell, residual, tol):
    if abs(cheb.eval01(coeffs, 0.0) - 1.0) >= 1e-12:
        raise InvariantViolation("E(0) != 1 beyond 1e-12")
    grid = np.linspace(0.0, 1.0, 1024)
    dE = cheb.eval01(cheb.der01(coeffs), grid)
    if dE.max() * dE.min() <= 0.0:
        raise InvariantViolation("E' changes sign on [0,1]")
    if not abs(alpha) > 1.0:
        raise InvariantViolation(f"|alpha| = {abs(alpha)} is not > 1")
    if alpha >= 0.0:
        raise InvariantViolation("alpha must be negative for reversing type")
    g1 = cheb.eval01(coeffs, 1.0)
    if abs(g1 - 1.0 / alpha) >= 10 * tol:
        raise InvariantViolation("g(1) != 1/alpha beyond 10*tol")
    if not residual < tol:
        raise NoConvergence(
            f"validation defect {residual:.3e} >= tol {tol:.3e}", residual
        )


def _default_seed(degree):
    u = cheb.gauss_nodes(max(degree + 1, 16))
    vals = 1.0 - 1.52 * u + 0.10 * u ** 2
    return cheb.fit01(u, vals, degree), -2.5


def solve_fixed_point(combinatorics, ell, degree=40, tol=1e-10, max_iter=40,
                      initial_guess=None):
    """Solve the fixed-point equation by damped Newton on collocation.

    Parameters
    ----------
    combinatorics : CombinatoricsType
        Only period doubling (p=2, reversing) is accepted.
    ell : int
        Even criticality order >= 2.
    degree : int
        Chebyshev truncation order of E (>= 10).
    tol : float
        Acceptance threshold for the sup defect on the validation grid.
    max_iter : int
        Newton iteration cap.
    initial_guess : (coeffs, alpha), optional
        Seed; defaults to the built-in ell=2 seed, reached by internal
        continuation for larger ell.

    Returns
    -------
    FixedPointMap
    """
    combinatorics.validate()
    if ell < 2 or ell % 2 != 0:
        raise DomainError(f"ell must be an even integer >= 2, got {ell}")
    if degree < 10:
        raise DomainError(f"degree must be >= 10, got {degree}")

    if initial_guess is None and ell > 2:
        fp = solve_fixed_point(combinatorics, 2, degree, tol, max_iter)
        for next_ell in range(4, ell + 1, 2):
            fp = continue_in_ell(fp, next_ell, tol=tol, max_iter=max_iter)
        meta = dict(fp.solver_meta)
        meta["seed"] = "chained-continuation-from-ell-2"
        return FixedPointMap(fp.combinatorics, fp.ell, fp.alpha, fp.e_coeffs,
                             fp.degree, fp.residual, meta)

    if initial_guess is None:
        coeffs, alpha = _default_seed(degree)
        seed_name = "builtin-ell-2"
    else:
        coeffs0, alpha = initial_guess
        coeffs = np.zeros(degree + 1)
        n = min(len(coeffs0), degree + 1)
        coeffs[:n] = np.asarray(coeffs0, dtype=float)[:n]
        seed_name = "caller-supplied"

    nodes = cheb.gauss_nodes(degree + 1)
    F = _residual_vec(coeffs, alpha, ell, nodes)
    best = float(np.max(np.abs(F)))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        J = _jacobian(coeffs, alpha, ell, nodes, degree)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > 1e14:
            raise DegenerateJacobian(
                f"Newton system ill-conditioned at iteration {iterations}"
            )
        step = np.linalg.solve(J, -F)
        damp = 1.0
        for _ in range(8):
            c_new = coeffs + damp * step[:-1]
            a_new = alpha + damp * step[-1]
            F_new = _residual_vec(c_new, a_new, ell, nodes)
            if np.max(np.abs(F_new)) < best:
                break
            damp *= 0.5
        coeffs, alpha, F = c_new, a_new, F_new
        best = float(np.max(np.abs(F)))
        if best < 0.05 * tol:
            break
    else:
        raise NoConvergence(
            f"Newton stalled after {max_iter} iterations, residual {best:.3e}",
            best,
        )

    residual = _validation_defect(coeffs, alpha, ell)
    _check_invariants(coeffs, alpha, ell, residual, tol)

    meta = {
        "iterations": iterations,
        "tol": tol,
        "seed": seed_name,
        "timestamp": time.time(),
    }
    return FixedPointMap(combinatorics, ell, float(alpha), coeffs, degree,
                         residual, meta)


def continue_in_ell(prev, next_ell, tol=1e-10, max_iter=40):
    """One continuation step prev.ell -> prev.ell + 2, seeded by prev.

    The alpha seed keeps tau continuous across the step; on NoConvergence
    the degree is doubled once before giving up.
    """
    if next_ell != prev.ell + 2:
        raise DomainError(
            f"continuation is single-step: {prev.ell} -> {prev.ell + 2}, "
            f"got {next_ell}"
        )
    alpha_seed = -prev.tau ** (1.0 / next_ell)
    guess = (prev.e_coeffs, alpha_seed)
    try:
        fp = solve_fixed_point(prev.combinatorics, next_ell, prev.degree, tol,
                               max_iter, initial_guess=guess)
    except NoConvergence:
        fp = solve_fixed_point(prev.combinatorics, next_ell, 2 * prev.degree,
                               tol, max_iter, initial_guess=guess)
    meta = dict(fp.solver_meta)
    meta["seed"] = f"continued-from-ell-{prev.ell}"
    return FixedPointMap(fp.combinatorics, fp.ell, fp.alpha, fp.e_coeffs,
                         fp.degree, fp.residual, meta)


def evaluate_g(fp, x, deriv_order=0):
    """Value or derivative of g(x) = E(|x|^ell) for x in [-1,1].

    Derivatives are chain-rule analytic; deriv_order up to 2.
    """
    if not 0 <= deriv_order <= 2:
        raise DomainError(f"deriv_order {deriv_order} outside 0..2")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x_arr) > 1.0 + 1e-12):
        raise DomainError("evaluate_g requires |x| <= 1")
    ell = fp.ell
    u = _abs_pow(x_arr, ell)
    if deriv_order == 0:
        out = fp.E(u)
    elif deriv_order == 1:
        du = ell * _abs_pow(x_arr, ell - 1) * np.sign(x_arr)
        out = fp.E(u, 1) * du
    else:
        du = ell * _abs_pow(x_arr, ell - 1) * np.sign(x_arr)
        d2u = ell * (ell - 1) * _abs_pow(x_arr, ell - 2)
        out = fp.E(u, 2) * du ** 2 + fp.E(u, 1) * d2u
    return out[0] if np.isscalar(x) or np.ndim(x) == 0 else out


def cache_filename(fp_or_triple):
    """Canonical cache name fp_p{p}_l{ell}_d{degree}.json."""
    if isinstance(fp_or_triple, FixedPointMap):
        p, ell, degree = (fp_or_triple.combinatorics.p, fp_or_triple.ell,
                          fp_or_triple.degree)
    else:
        p, ell, degree = fp_or_triple
    return f"fp_p{p}_l{ell}_d{degree}.json"


def save_fixed_point(fp, path=None):
    """Write the JSON cache record; returns the path written.

    If path is a directory (or None, meaning cwd) the canonical filename is
    used. Serialization is canonical so save -> load -> save is
    byte-identical. The record goes to a temporary file in the same
    directory and is then renamed onto path, so a reader sees either the
    previous record or the complete new one, never a torn file.
    """
    record = {
        "schema": SCHEMA,
        "p": fp.combinatorics.p,
        "orientation": fp.combinatorics.orientation,
        "ell": fp.ell,
        "alpha": fp.alpha,
        "basis": BASIS,
        "degree": fp.degree,
        "coeffs": [float(c) for c in fp.e_coeffs],
        "residual": fp.residual,
        "tol": fp.solver_meta.get("tol", 1e-10),
        "iterations": fp.solver_meta.get("iterations", 0),
    }
    if path is None:
        path = cache_filename(fp)
    elif os.path.isdir(path):
        path = os.path.join(path, cache_filename(fp))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_fixed_point(path, revalidate=True):
    """Read a cache record back into a FixedPointMap.

    Raises SchemaMismatch on a wrong schema tag, UnsupportedCombinatorics
    on a combinatorics other than period doubling, and CorruptFile on parse
    failures, missing keys, non-finite data, or (with revalidate) a defect
    that no longer meets the stored tolerance.
    """
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptFile(f"cannot read {path}: {exc}") from exc
    if not isinstance(record, dict) or "schema" not in record:
        raise CorruptFile(f"{path} is not a cache record")
    if record["schema"] != SCHEMA:
        raise SchemaMismatch(
            f"{path} has schema {record['schema']!r}, expected {SCHEMA!r}"
        )
    try:
        combinatorics = CombinatoricsType(record["p"], record["orientation"])
        ell = int(record["ell"])
        alpha = float(record["alpha"])
        degree = int(record["degree"])
        coeffs = np.asarray(record["coeffs"], dtype=float)
        residual = float(record["residual"])
        tol = float(record["tol"])
        iterations = int(record["iterations"])
        basis = record["basis"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path} missing or malformed fields: {exc}") from exc
    if basis != BASIS:
        raise SchemaMismatch(f"{path} uses basis {basis!r}, expected {BASIS!r}")
    combinatorics.validate()
    if len(coeffs) != degree + 1 or not np.all(np.isfinite(coeffs)) \
            or not np.isfinite(alpha):
        raise CorruptFile(f"{path} has inconsistent or non-finite data")
    if revalidate:
        defect = _validation_defect(coeffs, alpha, ell)
        if not defect < tol:
            raise CorruptFile(
                f"{path} fails residual revalidation: {defect:.3e} >= {tol:.3e}"
            )
        residual = defect
    meta = {"iterations": iterations, "tol": tol, "seed": f"loaded:{path}"}
    return FixedPointMap(combinatorics, ell, alpha, coeffs, degree, residual,
                         meta)


def cached_solve(ell, degree, tol, cache_dir, prev=None, initial_guess=None):
    """The period-doubling fixed point at (ell, degree), through a cache.

    Returns (fp, path, hit). A record in cache_dir is loaded and
    revalidated; one that fails to load is reported by a UserWarning
    naming the path and the error, then re-solved and overwritten. On a
    miss the Newton seed is initial_guess if given, else one
    continue_in_ell step when prev is the fixed point at (ell - 2, degree),
    else the built-in seed. cache_dir None solves without caching (path
    None).
    """
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, cache_filename((2, ell, degree)))
        if os.path.exists(path):
            try:
                return load_fixed_point(path), path, True
            except FeigdimError as exc:
                warnings.warn(f"cache entry {path} rejected "
                              f"({type(exc).__name__}: {exc}); re-solving",
                              stacklevel=2)
    if initial_guess is None and prev is not None and \
            ell == prev.ell + 2 and degree == prev.degree:
        fp = continue_in_ell(prev, ell, tol=tol)
    else:
        fp = solve_fixed_point(PERIOD_DOUBLING, ell, degree=degree, tol=tol,
                               initial_guess=initial_guess)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_fixed_point(fp, path)
    return fp, path, False
