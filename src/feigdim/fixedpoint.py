"""Solver for the renormalization fixed-point equation alpha g(g(x)) = g(alpha x).

The unknown map is written g(x) = E(|x|^ell) with E a diffeomorphism of
[0,1], expanded in shifted Chebyshev polynomials of u = |x|^ell. In the
E-variable the period-doubling equation becomes

    alpha * E(E(u)^ell) = E(tau * u),   tau = alpha^ell,

collocated at fixed Chebyshev-Gauss nodes: the outer argument is placed at
nodes u_i in (0,1) via the substitution u = v / tau, so the collocation rows
read alpha * E(E(v_i/tau)^ell) - E(v_i) = 0 with the normalization row
E(0) = 1 closing the square Newton system in (coeffs, alpha).

One Newton iteration evaluates E once per dependent stage. The residual
reads E on the joined points [u, nodes, 0], u = nodes / tau, then on
v = E(u)^ell, and hands u, E(u), v and E(v) to the Jacobian, which reads E'
and the Chebyshev rows on [u, v] in one call each; the rows at the nodes
and at 0 are built once per solve. Every value is numpy's chebval (or
chebvander) point by point, so joining points changes no bit of an iterate.

cached_solve is the one cache policy: every command and the sweep get their
fixed points through it. write_csv is the one CSV writer of the package,
for files and streams alike.
"""
import csv
import functools
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
        object.__setattr__(self, "e_coeffs",
                           np.asarray(self.e_coeffs, dtype=float))

    # built on first use: the chain maps of a continuation never read them
    _jet_table = functools.cached_property(
        lambda self: cheb.jet_table(self.e_coeffs, 3))
    _jet_lists = functools.cached_property(
        lambda self: self._jet_table.T.tolist())

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


def _residual(coeffs, alpha, ell, nodes):
    """Collocation residual rows plus the normalization row, and the values
    (u, E(u), v, E(v)) that _jacobian reads at the same iterate."""
    u = nodes / alpha ** ell
    n = len(nodes)
    E_joined = cheb.eval01(coeffs, np.concatenate([u, nodes, [0.0]]))
    v = E_joined[:n] ** ell
    Ev = cheb.eval01(coeffs, v)
    F = np.append(alpha * Ev - E_joined[n:-1], E_joined[-1] - 1.0)
    return F, (u, E_joined[:n], v, Ev)


def _jacobian(coeffs, alpha, ell, nodes, values, Phi_n, norm_row):
    """Newton matrix from _residual's values; Phi_n = vander01(nodes)."""
    u, Eu, v, Ev = values
    tau = alpha ** ell
    dE_u, dE_v = cheb.eval01(cheb.der01(coeffs), np.stack([u, v]))
    Phi_u, Phi_v = cheb.vander01(np.stack([u, v]), len(coeffs) - 1)
    w = dE_v * ell * Eu ** (ell - 1)
    Jc = alpha * (Phi_v + w[:, None] * Phi_u) - Phi_n
    du_da = -nodes * tau ** -2 * ell * alpha ** (ell - 1)
    Ja = Ev + alpha * w * dE_u * du_da
    return np.vstack([np.hstack([Jc, Ja[:, None]]), norm_row])


def _validation_defect(coeffs, alpha, ell):
    """Sup of |alpha g(g(x)) - g(alpha x)| on 512 points of [0, 1/|alpha|]."""
    x = np.linspace(0.0, 1.0 / abs(alpha), 512)
    gx, gax = cheb.eval01(coeffs, np.stack([x ** ell,
                                            np.abs(alpha * x) ** ell]))
    ggx = cheb.eval01(coeffs, np.abs(gx) ** ell)
    return float(np.max(np.abs(alpha * ggx - gax)))


def _check_invariants(coeffs, alpha, ell, residual, tol):
    E0, E1 = cheb.eval01(coeffs, np.array([0.0, 1.0]))
    if abs(E0 - 1.0) >= 1e-12:
        raise InvariantViolation("E(0) != 1 beyond 1e-12")
    grid = np.linspace(0.0, 1.0, 1024)
    dE = cheb.eval01(cheb.der01(coeffs), grid)
    if dE.max() * dE.min() <= 0.0:
        raise InvariantViolation("E' changes sign on [0,1]")
    if not abs(alpha) > 1.0:
        raise InvariantViolation(f"|alpha| = {abs(alpha)} is not > 1")
    if alpha >= 0.0:
        raise InvariantViolation("alpha must be negative for reversing type")
    if abs(E1 - 1.0 / alpha) >= 10 * tol:
        raise InvariantViolation("g(1) != 1/alpha beyond 10*tol")
    if not residual < tol:
        raise NoConvergence(
            f"validation defect {residual:.3e} >= tol {tol:.3e}", residual
        )


def _default_seed(degree):
    u = cheb.cheb_points(0.0, 1.0, max(degree + 1, 16))
    vals = 1.0 - 1.52 * u + 0.10 * u ** 2
    return cheb.fit01(u, vals, degree), -2.5


def _is_integer(n):
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _checked_guess(initial_guess):
    """(coeffs as a float array, alpha as a float) of a Newton seed, or
    DomainError unless the coefficients are a non-empty 1-D array of finite
    numbers and alpha is a finite, nonzero number."""
    try:
        coeffs, alpha = initial_guess
        coeffs = np.asarray(coeffs)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"initial_guess is not (coeffs, alpha): {exc}") \
            from exc
    if not (coeffs.ndim == 1 and coeffs.size and coeffs.dtype.kind in "iuf"
            and np.all(np.isfinite(coeffs))):
        raise DomainError("initial_guess coefficients must be a non-empty "
                          "1-D array of finite numbers")
    if not (isinstance(alpha, (int, float, np.integer, np.floating))
            and not isinstance(alpha, bool) and np.isfinite(alpha)
            and alpha != 0):
        raise DomainError(f"initial_guess alpha must be finite and nonzero, "
                          f"got {alpha!r}")
    return coeffs.astype(float), float(alpha)


def solve_fixed_point(combinatorics, ell, degree=40, tol=1e-10,
                      initial_guess=None):
    """Solve the fixed-point equation by damped Newton on collocation.

    One iteration reads E twice for the residual at the iterate (on
    [u, nodes, 0], then on v = E(u)^ell) and, from those values, E' and the
    Chebyshev rows once each on [u, v] for the Jacobian; each line-search
    trial is one more residual. Newton stops at 40 iterations
    (NoConvergence).

    Parameters
    ----------
    combinatorics : CombinatoricsType
        Only period doubling (p=2, reversing) is accepted.
    ell : int
        Even criticality order >= 2, a Python or numpy integer.
    degree : int
        Chebyshev truncation order of E (>= 10), a Python or numpy integer.
    tol : float
        Acceptance threshold for the sup defect on the validation grid,
        finite and > 0.
    initial_guess : (coeffs, alpha), optional
        Seed: a non-empty 1-D array of finite coefficients (cut or
        zero-padded to degree + 1) and a finite, nonzero alpha. Defaults
        to the built-in ell=2 seed, reached by internal continuation for
        larger ell.

    Returns
    -------
    FixedPointMap
    """
    combinatorics.validate()
    if not (_is_integer(ell) and ell >= 2 and ell % 2 == 0):
        raise DomainError(f"ell must be an even integer >= 2, got {ell}")
    if not (_is_integer(degree) and degree >= 10):
        raise DomainError(f"degree must be an integer >= 10, got {degree}")
    ell, degree = int(ell), int(degree)  # the record stores JSON integers
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")

    if initial_guess is None and ell > 2:
        fp = solve_fixed_point(combinatorics, 2, degree, tol)
        while fp.ell < ell:
            fp = continue_in_ell(fp, tol=tol)
        return fp

    if initial_guess is None:
        coeffs, alpha = _default_seed(degree)
    else:
        coeffs0, alpha = _checked_guess(initial_guess)
        coeffs = np.zeros(degree + 1)
        n = min(len(coeffs0), degree + 1)
        coeffs[:n] = coeffs0[:n]

    nodes = cheb.cheb_points(0.0, 1.0, degree + 1)
    rows = cheb.vander01(np.append(nodes, 0.0), degree)  # nodes, then 0
    Phi_n, norm_row = rows[:-1], np.append(rows[-1], 0.0)
    F, values = _residual(coeffs, alpha, ell, nodes)
    best = float(np.max(np.abs(F)))
    iterations = 0
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        J = _jacobian(coeffs, alpha, ell, nodes, values, Phi_n, norm_row)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > 1e14:
            raise DegenerateJacobian(
                f"Newton system ill-conditioned at iteration {iterations}"
            )
        step = np.linalg.solve(J, -F)
        damp = 1.0
        for _ in range(8):
            c_new = coeffs + damp * step[:-1]
            a_new = alpha + damp * step[-1]
            F_new, v_new = _residual(c_new, a_new, ell, nodes)
            if np.max(np.abs(F_new)) < best:
                break
            damp *= 0.5
        coeffs, alpha, F, values = c_new, a_new, F_new, v_new
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
    failures, missing keys, non-finite data, a stored tolerance outside
    (0, inf), or (with revalidate) a defect that no longer meets it; ell,
    degree and iterations must be JSON integers, not floats or booleans,
    and coeffs a non-empty flat list of JSON numbers, alpha, residual and
    tol JSON numbers, not strings or booleans.
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
        ell, degree, iterations = (record[key] for key in
                                   ("ell", "degree", "iterations"))
        alpha, residual, tol = (record[key] for key in
                                ("alpha", "residual", "tol"))
        coeffs = record["coeffs"]
        basis = record["basis"]
    except KeyError as exc:
        raise CorruptFile(f"{path} missing field {exc}") from exc
    if not all(type(n) is int for n in (ell, degree, iterations)):
        raise CorruptFile(f"{path}: ell, degree and iterations must be "
                          "JSON integers")
    if not (type(coeffs) is list and coeffs
            and all(type(x) in (int, float) for x in (alpha, residual, tol,
                                                        *coeffs))):
        raise CorruptFile(f"{path}: coeffs must be a non-empty flat list of "
                          "JSON numbers, and alpha, residual and tol JSON "
                          "numbers")
    alpha, residual, tol = float(alpha), float(residual), float(tol)
    coeffs = np.asarray(coeffs, dtype=float)
    if basis != BASIS:
        raise SchemaMismatch(f"{path} uses basis {basis!r}, expected {BASIS!r}")
    combinatorics.validate()
    if len(coeffs) != degree + 1 or not np.all(np.isfinite(coeffs)) \
            or not np.isfinite(alpha) or not 0.0 < tol < np.inf:
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
    revalidated; one that fails to load, holds another ell or a lower
    degree (a doubling files a higher one under the name), or whose
    residual is not below tol, is reported by a UserWarning naming the path
    and the error, then re-solved and overwritten. On a miss, when prev is
    the fixed point at ell - 2 and of at least this degree (continue_in_ell
    may have doubled it), the map is one continue_in_ell step from it, at
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
                if fp.ell != ell or fp.degree < degree or \
                        not fp.residual < tol:
                    raise CorruptFile(
                        f"{path} holds ell {fp.ell}, degree {fp.degree}, "
                        f"residual {fp.residual:.3e}; wanted ell {ell}, "
                        f"degree >= {degree}, residual < {tol:.3e}")
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
