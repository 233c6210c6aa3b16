"""Solver for the renormalization fixed-point equation alpha g(g(x)) = g(alpha x).

The unknown map is written g(x) = E(|x|^ell) with E a diffeomorphism of
[0,1], expanded in shifted Chebyshev polynomials of u = |x|^ell. In the
E-variable the period-doubling equation becomes

    alpha * E(E(u)^ell) = E(tau * u),   tau = alpha^ell,

collocated at fixed Chebyshev-Gauss nodes: the outer argument is placed at
nodes u_i in (0,1) via the substitution u = v / tau, so the collocation rows
read alpha * E(E(v_i/tau)^ell) - E(v_i) = 0 with the normalization row
E(0) = 1 closing the square Newton system in (coeffs, alpha).

cached_solve is the one cache policy: every command and the sweep get their
fixed points through it. write_csv is the one CSV writer of the package,
for files and streams alike.
"""
import csv
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

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
_NEWTON_MAX_ITER = 40


@dataclass(frozen=True)
class CombinatoricsType:
    """Renormalization combinatorics: period p and orientation."""

    p: int
    orientation: str

    def validate(self):
        if self.p != 2 or self.orientation != "reversing":
            raise UnsupportedCombinatorics(
                f"only p=2 orientation=reversing is supported, "
                f"got p={self.p} orientation={self.orientation!r}"
            )


PERIOD_DOUBLING = CombinatoricsType(2, "reversing")


@dataclass(frozen=True, eq=False)
class FixedPointMap:
    """Solved period-doubling pair (g, alpha) stored through the
    diffeomorphism E.

    e_coeffs are shifted-Chebyshev coefficients of E on [0,1], so degree is
    their count minus one; alpha is the signed rescaling (negative: period
    doubling reverses orientation); residual is the sup defect of the
    defining equation on the validation grid; solver_meta holds the Newton
    "iterations" and the "tol" the map was accepted at.
    """

    ell: int
    alpha: float
    e_coeffs: np.ndarray
    residual: float
    solver_meta: dict

    def __post_init__(self):
        coeffs = np.asarray(self.e_coeffs, dtype=float)
        object.__setattr__(self, "e_coeffs", coeffs)
        table = cheb.jet_table(coeffs, 3)
        object.__setattr__(self, "_jet_table", table)
        object.__setattr__(self, "_jet_lists", table.T.tolist())

    @property
    def degree(self):
        return len(self.e_coeffs) - 1

    @property
    def tau(self):
        return abs(self.alpha) ** self.ell

    def E(self, u, deriv=0):
        """E and derivatives in u: chebval(2u - 1, ...) of the derivative
        series, bit for bit. An array u takes cheb.eval01; a scalar u runs
        cheb.clenshaw on the map's own list and gives a np.float64."""
        if not 0 <= deriv <= 3:
            raise DomainError(f"deriv order {deriv} outside 0..3")
        if np.ndim(u) == 0:
            return np.float64(cheb.clenshaw(self._jet_lists[deriv],
                                            2.0 * float(u) - 1.0))
        return cheb.eval01(self._jet_table[:, deriv], u)

    def jets(self, u, order):
        """E, E', ..., E^(order) at u, stacked: shape (order + 1, *u.shape).

        On an array u, one cheb.eval01 call on the zero-padded derivative
        table: with order >= 1 a shared table of T_j(2u - 1) serves every
        row, and row j agrees with E(u, j) to roundoff. With order 0, or a
        scalar u (the map's lists), each row is E(u, j) bit for bit.
        """
        if not 0 <= order <= 3:
            raise DomainError(f"jet order {order} outside 0..3")
        if np.ndim(u) == 0:
            return np.array([self.E(u, j) for j in range(order + 1)])
        return cheb.eval01(self._jet_table[:, :order + 1], u)


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


def _validation_defect(coeffs, alpha, ell):
    """Sup of |alpha g(g(x)) - g(alpha x)| on 512 points of [0, 1/|alpha|]."""
    x = np.linspace(0.0, 1.0 / abs(alpha), 512)
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
    u = cheb.cheb_points(0.0, 1.0, max(degree + 1, 16))
    vals = 1.0 - 1.52 * u + 0.10 * u ** 2
    return cheb.fit01(u, vals, degree), -2.5


def solve_fixed_point(combinatorics, ell, degree=40, tol=1e-10,
                      initial_guess=None):
    """Solve the fixed-point equation by damped Newton on collocation.

    Newton stops at 40 iterations (NoConvergence).

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
        fp = solve_fixed_point(combinatorics, 2, degree, tol)
        while fp.ell < ell:
            fp = continue_in_ell(fp, tol=tol)
        return fp

    if initial_guess is None:
        coeffs, alpha = _default_seed(degree)
    else:
        coeffs0, alpha = initial_guess
        coeffs = np.zeros(degree + 1)
        n = min(len(coeffs0), degree + 1)
        coeffs[:n] = np.asarray(coeffs0, dtype=float)[:n]

    nodes = cheb.cheb_points(0.0, 1.0, degree + 1)
    F = _residual_vec(coeffs, alpha, ell, nodes)
    best = float(np.max(np.abs(F)))
    iterations = 0
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
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
            f"Newton stalled after {_NEWTON_MAX_ITER} iterations, "
            f"residual {best:.3e}",
            best,
        )

    residual = _validation_defect(coeffs, alpha, ell)
    _check_invariants(coeffs, alpha, ell, residual, tol)

    return FixedPointMap(ell, float(alpha), coeffs, residual,
                         {"iterations": iterations, "tol": tol})


def continue_in_ell(prev, tol=1e-10):
    """The fixed point at prev.ell + 2, seeded by prev at prev's degree.

    The alpha seed keeps tau continuous across the step; on NoConvergence
    the degree is doubled once before giving up.
    """
    ell = prev.ell + 2
    guess = (prev.e_coeffs, -prev.tau ** (1.0 / ell))
    try:
        return solve_fixed_point(PERIOD_DOUBLING, ell, prev.degree, tol,
                                 initial_guess=guess)
    except NoConvergence:
        return solve_fixed_point(PERIOD_DOUBLING, ell, 2 * prev.degree, tol,
                                 initial_guess=guess)


def evaluate_g(fp, x, deriv_order=0):
    """Value (deriv_order 0) or first derivative (1) of g(x) = E(|x|^ell)
    for x in [-1,1]; the derivative is chain-rule analytic.
    """
    if deriv_order not in (0, 1):
        raise DomainError(f"deriv_order {deriv_order} outside 0..1")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x_arr) > 1.0 + 1e-12):
        raise DomainError("evaluate_g requires |x| <= 1")
    ell = fp.ell
    ax = np.abs(x_arr)
    u = ax ** ell
    if deriv_order == 0:
        out = fp.E(u)
    else:
        du = ell * ax ** (ell - 1) * np.sign(x_arr)
        out = fp.E(u, 1) * du
    return out[0] if np.isscalar(x) or np.ndim(x) == 0 else out


def cache_filename(triple):
    """Canonical cache name fp_p{p}_l{ell}_d{degree}.json of the triple
    (p, ell, degree)."""
    p, ell, degree = triple
    return f"fp_p{p}_l{ell}_d{degree}.json"


def save_fixed_point(fp, path):
    """Write the JSON cache record; returns the path written.

    If path is a directory the canonical filename is used. Serialization
    is canonical so save -> load -> save is byte-identical. The record goes
    to a temporary file in the same directory and is then renamed onto
    path, so a reader sees either the previous record or the complete new
    one, never a torn file.
    """
    record = {
        "schema": SCHEMA,
        "p": PERIOD_DOUBLING.p,
        "orientation": PERIOD_DOUBLING.orientation,
        "ell": fp.ell,
        "alpha": fp.alpha,
        "basis": BASIS,
        "degree": fp.degree,
        "coeffs": [float(c) for c in fp.e_coeffs],
        "residual": fp.residual,
        "tol": fp.solver_meta["tol"],
        "iterations": fp.solver_meta["iterations"],
    }
    if os.path.isdir(path):
        path = os.path.join(path, cache_filename(
            (PERIOD_DOUBLING.p, fp.ell, fp.degree)))
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
    return FixedPointMap(ell, alpha, coeffs, residual,
                         {"iterations": iterations, "tol": tol})


def write_csv(dest, header, rows):
    """Write the header and the dict rows, read in header order, to dest.

    dest is a path or a text stream; returns dest. Every line ends in a
    bare newline, in files and on streams alike. Cells are integers as str
    and reals as repr(float), which reads back as the same float.
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return dest
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = (row[key] for key in header)
        writer.writerow([str(v) if isinstance(v, (int, np.integer))
                         else repr(float(v)) for v in cells])
    return dest


def cached_solve(ell, degree, tol, cache_dir, prev=None, initial_guess=None):
    """The period-doubling fixed point at (ell, degree), through a cache.

    Returns (fp, path, hit). A record in cache_dir is loaded and
    revalidated; one that fails to load, or whose revalidated residual is
    not below tol, is reported by a UserWarning naming the path and the
    error, then re-solved and overwritten. On a miss, when prev is the
    fixed point at ell - 2 and of at least this degree (continue_in_ell may
    have doubled it), the map is one continue_in_ell step from it, at
    prev's degree; otherwise Newton starts from initial_guess if given,
    else from the built-in seed. So a seed applies only to an ell with no
    previous map to continue from. cache_dir None solves without caching
    (path None).
    """
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, cache_filename((2, ell, degree)))
        if os.path.exists(path):
            try:
                fp = load_fixed_point(path)
                if not fp.residual < tol:
                    raise CorruptFile(f"{path} residual {fp.residual:.3e} "
                                      f"does not meet tol {tol:.3e}")
                return fp, path, True
            except FeigdimError as exc:
                warnings.warn(f"cache entry {path} rejected "
                              f"({type(exc).__name__}: {exc}); re-solving",
                              stacklevel=2)
    if prev is not None and ell == prev.ell + 2 and prev.degree >= degree:
        fp = continue_in_ell(prev, tol=tol)
    else:
        fp = solve_fixed_point(PERIOD_DOUBLING, ell, degree=degree, tol=tol,
                               initial_guess=initial_guess)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_fixed_point(fp, path)
    return fp, path, False
