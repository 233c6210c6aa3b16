"""The infinite presentation IFS {psi_k = G^k o H^{-1}} on I = [c_2, c_4].

Only period doubling (p = 2) is supported, so there is one inverse branch
H^{-1} and the letters are (k, 1) for k = 1..Kmax; the public (k, m) form
is kept so that a letter still names its branch. PresentationSystem
implements the IFS protocol of the dimension engine (interval, Kmax,
letters, map_eval, tail_bound), and iter_letter_jets streams the jets of
the whole alphabet.

Branch inversions are one-lap solves of E(z) = x^(1/ell) by safeguarded
bisection-Newton; G^k is applied as k explicit contraction steps, which is
numerically stable for every k because the cylinders accumulate at the
attracting fixed point x_c of G. The alternative composition form
psi_k = H^{-1} o tau^{-k} is kept for cross-validation on shallow k,
where the inversion is still well conditioned.
"""
import csv
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    BranchNotMonotone,
    DomainError,
    IndexOutOfAlphabet,
    InvariantViolation,
    NoContraction,
    OrbitIndexOverflow,
    RatioNotContracting,
)
from .unimodal import DEFAULT_ORBIT_MAX, _G_jets, _H_jets, critical_orbit, eval_H

_X_SLACK = 1e-9
_TAIL_NX = 64
_NBIS = 8
_NNEWT = 4


@dataclass(frozen=True, eq=False)
class PresentationSystem:
    """Built presentation IFS with cylinder table and contraction data."""

    sys: object
    I: tuple
    orbit: np.ndarray
    Kmax: int
    J: tuple
    lambda_rho: float
    cylinders: np.ndarray
    branch_side: np.ndarray
    k_verify: int

    @property
    def interval(self):
        return self.I

    @property
    def p(self):
        return self.sys.p

    def letters(self, K=None):
        K = self.Kmax if K is None else K
        if K > self.Kmax:
            raise IndexOutOfAlphabet(f"K={K} exceeds Kmax={self.Kmax}")
        return [(k, 1) for k in range(1, K + 1)]

    def map_eval(self, letter, x, nder=1):
        k, m = letter
        _check_letter(self, k, m)
        return _psi_jets(self, k, m, np.asarray(x, dtype=float), nder)

    def tail_bound(self, K, t):
        return tail_bound(self, K, t)

    @cached_property
    def tail_levels(self):
        """sup_I |Dpsi_k| on a 64-point grid of I, entry k-1 for k <= Kmax.

        The frozen dataclass has no slots, so the table is stored on the
        instance at first use and shared by every later tail_bound call.
        """
        x = np.linspace(*self.I, _TAIL_NX)
        levels = np.array([float(np.max(np.abs(jets[1])))
                           for _, jets in iter_letter_jets(self, self.Kmax, x)])
        levels.flags.writeable = False
        return levels

    def orbit_index(self, j):
        if j >= len(self.orbit):
            raise OrbitIndexOverflow(
                f"orbit index {j} exceeds the stored budget {len(self.orbit) - 1}"
            )
        return self.orbit[j]


def _check_letter(ps, k, m):
    if not (1 <= k <= ps.Kmax) or not (1 <= m <= ps.p - 1):
        raise IndexOutOfAlphabet(f"letter (k={k}, m={m}) outside the alphabet")


def _solve_E_decreasing(fp, targets, lo, hi):
    """Solve E(z) = target on [lo, hi] where E is strictly decreasing.

    A few bisection steps shrink [lo, hi] to a bracket [a, b] that holds
    the root, then Newton polishes the midpoint. Every Newton iterate is
    clipped to its own bracket [a, b], so it never leaves the interval
    bisection certified even where E' is small.
    """
    targets = np.asarray(targets, dtype=float)
    a = np.full(targets.shape, lo)
    b = np.full(targets.shape, hi)
    for _ in range(_NBIS):
        mid = 0.5 * (a + b)
        high = fp.E(mid) > targets
        a = np.where(high, mid, a)
        b = np.where(high, b, mid)
    z = 0.5 * (a + b)
    for _ in range(_NNEWT):
        step = (fp.E(z) - targets) / fp.E(z, 1)
        z = np.clip(z - step, a, b)
    return z


def _h_inverse_jets(sys, x, nder):
    """Jets of the branch H^{-1} on I.

    The branch maps I into [c_1, c_3] inside the decreasing lap of H left
    of x_c, where E > 0: solve E(z) = x^(1/ell).
    """
    fp = sys.fp
    targets = x ** (1.0 / fp.ell)
    z = _solve_E_decreasing(fp, targets, 0.0, sys.x_c)
    if nder == 0:
        return (z,)
    jets = _H_jets(fp, z, min(nder, 3))
    h1 = jets[1]
    out = [z, 1.0 / h1]
    if nder >= 2:
        h2 = jets[2]
        out.append(-h2 * out[1] ** 3)
    if nder >= 3:
        h3 = jets[3]
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


def _psi_jets(ps, k, m, x, nder):
    """Jets of the single letter psi_{k,m}; m is 1 in the p = 2 alphabet."""
    jets = _h_inverse_jets(ps.sys, x, nder)
    for _ in range(k):
        jets = _g_step_jets(ps.sys, jets, nder)
    return jets


def iter_letter_jets(ps, K, x, nder=1):
    """Yield (letter, jets) in ps.letters(K) order, sharing the G-iteration.

    The only whole-alphabet jet path: one branch inversion and K
    contraction steps cover the alphabet, and callers that stream the
    letters keep memory at a single jet tuple.
    """
    if K > ps.Kmax:
        raise IndexOutOfAlphabet(f"K={K} exceeds Kmax={ps.Kmax}")
    x = np.asarray(x, dtype=float)
    jets = _h_inverse_jets(ps.sys, x, nder)
    for k in range(1, K + 1):
        jets = _g_step_jets(ps.sys, jets, nder)
        yield (k, 1), jets


def psi(ps, k, m, x, deriv=0):
    """psi_{k,m}(x) or its first derivative, x in I."""
    _check_letter(ps, k, m)
    if deriv not in (0, 1):
        raise DomainError(f"deriv must be 0 or 1, got {deriv}")
    lo, hi = ps.I
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < lo - _X_SLACK) or np.any(x_arr > hi + _X_SLACK):
        raise DomainError(f"psi argument outside I = [{lo}, {hi}]")
    jets = _psi_jets(ps, k, m, x_arr, deriv)
    out = jets[deriv]
    return float(out[0]) if np.ndim(x) == 0 else out


def psi_alt(ps, k, m, x, deriv=0):
    """Cross-validation form psi_k = H^{-1} o tau^{-k}.

    The outer inversion happens on the lap that carries the cylinder, so it
    is only well conditioned while the cylinder is far from x_c (small k).
    """
    _check_letter(ps, k, m)
    sys = ps.sys
    fp = sys.fp
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    u = x_arr / sys.tau ** k
    side = ps.branch_side[k - 1]
    targets = side * u ** (1.0 / fp.ell)
    if side > 0:
        z = _solve_E_decreasing(fp, targets, 0.0, sys.x_c)
    else:
        z = _solve_E_decreasing(fp, targets, sys.x_c, 1.0)
    if deriv == 0:
        out = z
    else:
        out = 1.0 / (sys.tau ** k * _H_jets(fp, z, 1)[1])
    return float(out[0]) if np.ndim(x) == 0 else out


def build_presentation(sys, Kmax=None, orbit_budget=DEFAULT_ORBIT_MAX,
                       j_margin=0.2, strict_orbit=False):
    """Construct the presentation system and verify its invariants.

    Kmax defaults to 40 scaled up proportionally for ell > 8. The critical
    orbit is stored up to orbit_budget; endpoint identities are checked for
    every k whose orbit indexes fit the budget and whose entries sit below
    the table's measured roundoff floor (strict_orbit=True demands the full
    table instead and raises OrbitIndexOverflow).
    """
    if Kmax is None:
        Kmax = int(40 * max(1.0, sys.ell / 8.0))
    if Kmax < 1:
        raise DomainError(f"Kmax must be >= 1, got {Kmax}")

    # letter k has cylinder endpoints c_{2^k} and c_{3*2^k}
    need = np.log(4) + Kmax * np.log(2)
    full_table_len = None if need > np.log(orbit_budget) else 2 ** Kmax * 4
    if full_table_len is None and strict_orbit:
        raise OrbitIndexOverflow(
            f"orbit to index 2^Kmax*4 = 2^{Kmax}*4 exceeds the "
            f"budget {orbit_budget}"
        )
    n_orbit = orbit_budget if full_table_len is None else full_table_len
    orbit = critical_orbit(sys, n_orbit)

    lo, hi = sorted((orbit[2], orbit[4]))
    I = (float(lo), float(hi))

    dH = eval_H(sys, np.linspace(*sorted((orbit[1], orbit[3])), 257), 1)
    if dH.max() * dH.min() <= 0.0:
        raise BranchNotMonotone("H not monotone on the branch lap [c_1, c_3]")

    k_fit = int(np.floor(np.log(n_orbit / 4.0) / np.log(2)))
    k_fit = max(1, min(Kmax, k_fit))

    # Deep orbit entries accumulate roundoff (worse for large ell), so the
    # endpoint identity is only certifiable as far as the table's own noise
    # floor allows. The doubling defect |G(c_j) - c_{2j}| probes that floor
    # at index 2j; verification depth stops where it nears the tolerance.
    half = np.arange(1, n_orbit // 2)
    doubled = _G_jets(sys, orbit[half], 0)[0]
    defect = np.abs(doubled - orbit[2 * half])
    k_verify = 0
    for k in range(1, k_fit + 1):
        if float(defect[:2 ** (k + 1)].max()) < 0.25e-8:
            k_verify = k
        else:
            break
    if k_verify == 0:
        raise InvariantViolation(
            f"orbit doubling defect {defect[:4].max():.2e} already "
            "exceeds the endpoint tolerance at k=1"
        )

    cylinders = np.empty((Kmax, 2))
    sides = np.empty(Kmax, dtype=int)
    ye = _h_inverse_jets(sys, np.array(I), 0)[0]
    ym = _h_inverse_jets(sys, np.array([0.5 * (I[0] + I[1])]), 0)[0]
    for k in range(1, Kmax + 1):
        ye = _G_jets(sys, ye, 0)[0]
        ym = _G_jets(sys, ym, 0)[0]
        cylinders[k - 1] = sorted(ye)
        sides[k - 1] = 1 if ym[0] < sys.x_c else -1

    for k in range(1, k_verify + 1):
        want = sorted((orbit[2 ** k], orbit[3 * 2 ** k]))
        got = cylinders[k - 1]
        err = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        if err >= 1e-8:
            raise InvariantViolation(
                f"cylinder endpoints for k={k} off by {err:.2e}"
            )

    if np.any(cylinders[:, 0] < I[0] - 1e-12) or \
            np.any(cylinders[:, 1] > I[1] + 1e-12):
        raise InvariantViolation("a cylinder leaves I")
    order = np.argsort(cylinders[:, 0])
    gaps = cylinders[order[1:], 0] - cylinders[order[:-1], 1]
    if np.any(gaps < -1e-12):
        raise InvariantViolation("cylinders overlap beyond the 1e-12 slack")

    ps = PresentationSystem(sys, I, orbit, Kmax, J=(0.0, 0.0), lambda_rho=1.0,
                            cylinders=cylinders, branch_side=sides,
                            k_verify=k_verify)
    width = I[1] - I[0]
    for margin in (j_margin, j_margin + 0.15, j_margin + 0.3):
        J = (I[0] - margin * width, I[1] + margin * width)
        lam_rho = contraction_certificate(ps, J=J)
        if lam_rho < 1.0:
            return replace(ps, J=J, lambda_rho=lam_rho)
    raise NoContraction("no J margin up to +0.5 gave lambda_rho < 1")


def _rho_density(J, x):
    """Hyperbolic density (up to a constant) of the disk with diameter J."""
    A, B = J
    return 1.0 / ((x - A) * (B - x))


def contraction_certificate(ps, J=None, nx=200):
    """sup over the alphabet and x in I of |psi'(x)| rho(psi x)/rho(x)."""
    if J is None:
        J = ps.J
    lo, hi = ps.I
    x = np.linspace(lo, hi, nx)
    rho_x = _rho_density(J, x)
    worst = 0.0
    for _, (val, der) in iter_letter_jets(ps, ps.Kmax, x):
        ratio = np.abs(der) * _rho_density(J, val) / rho_x
        worst = max(worst, float(ratio.max()))
    return worst


def word_map(ps, w, x):
    """phi_w = psi_{w_1} o ... o psi_{w_n} applied to x (empty word: x)."""
    lo, hi = ps.I
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < lo - _X_SLACK) or np.any(x_arr > hi + _X_SLACK):
        raise DomainError(f"word_map argument outside I = [{lo}, {hi}]")
    for k, m in reversed(list(w)):
        _check_letter(ps, k, m)
        x_arr = _psi_jets(ps, k, m, x_arr, 0)[0]
    return float(x_arr[0]) if np.ndim(x) == 0 else x_arr


def cylinder_of_word(ps, w):
    """The interval phi_w(I)."""
    ends = word_map(ps, list(w), np.array(ps.I))
    return (float(min(ends)), float(max(ends)))


@dataclass(frozen=True)
class DecayProfile:
    table: np.ndarray
    loglog_slope: float
    loglin_slope: float


def decay_profile(ps, m, x, k_window=None):
    """Rows (k, |psi'_{k,m}(x)|, k^{3/2} |psi'_{k,m}(x)|) plus slope fits.

    loglog_slope fits log|psi'| against log k over the window (crossover
    diagnostic for the k^{-3/2} regime); loglin_slope fits against k (the
    geometric tail, one G-step per k, so the slope sits near the log of
    the fixed-point multiplier -(1/ell) log tau).
    """
    _check_letter(ps, 1, m)
    ders = np.array([abs(float(der)) for _, (_, der)
                     in iter_letter_jets(ps, ps.Kmax, float(x))])
    k = np.arange(1, ps.Kmax + 1, dtype=float)
    table = np.column_stack([k, ders, k ** 1.5 * ders])
    if k_window is None:
        k_window = (2, ps.Kmax)
    sel = (k >= k_window[0]) & (k <= k_window[1]) & (ders > 0.0)
    loglog = float(np.polyfit(np.log(k[sel]), np.log(ders[sel]), 1)[0])
    loglin = float(np.polyfit(k[sel], np.log(ders[sel]), 1)[0])
    return DecayProfile(table, loglog, loglin)


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
    if t <= 0.0:
        raise DomainError(f"tail_bound needs t > 0, got {t}")
    if not 2 <= K <= ps.Kmax:
        raise DomainError(f"tail_bound needs 2 <= K <= Kmax={ps.Kmax}")
    levels = [float(ps.tail_levels[kk - 1]) ** t for kk in (K - 1, K)]
    ratio = 1.1 * levels[1] / levels[0]
    if ratio >= 1.0:
        raise RatioNotContracting(
            f"level ratio {ratio:.3f} >= 1 at K={K}, t={t}; increase Kmax"
        )
    return levels[1] * ratio / (1.0 - ratio)


def cylinders_csv(ps, path, nx=64):
    """Dump the cylinder table with per-letter derivative ranges."""
    lo, hi = ps.I
    x = np.linspace(lo, hi, nx)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "m", "left", "right", "sup_deriv", "min_deriv"])
        for (k, m), (_, der) in iter_letter_jets(ps, ps.Kmax, x):
            der = np.abs(der)
            left, right = ps.cylinders[k - 1]
            writer.writerow([k, m, f"{left:.12g}", f"{right:.12g}",
                             f"{der.max():.12g}", f"{der.min():.12g}"])
    return path
