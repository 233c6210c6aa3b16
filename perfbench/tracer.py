"""Spans and counters around feigdim's public functions, added from outside.

`Tracer.install()` replaces each function listed in `_targets()` by a wrapper
in every `feigdim.*` namespace that binds it (`from .x import f` copies the
binding, so one patch per module is not enough), and `uninstall()` puts the
originals back. Each wrapped call records a span (name, start, end, parent)
and bumps counters; `metrics()` turns them into per-layer self times, call
counts and fallback counts. Spans stay in memory as flat arrays so the
~10^5 `cheb.eval01` calls of a sweep cost a few MB.
"""
import inspect
import os
import sys
import warnings
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("fixedpoint", "unimodal", "presentation", "dimension", "cheb")

# Every timed entry reports `<name>.s` (self time) and `<name>.calls`.
TIMED = (
    "fixedpoint.solve", "fixedpoint.load", "fixedpoint.save",
    "unimodal.build_system", "unimodal.critical_orbit",
    "presentation.build", "presentation.contraction_certificate",
    "presentation.tail_bound", "presentation.letter_jets",
    "dimension.hausdorff_dimension", "dimension.pressure_model",
    "dimension.pressure_eigen", "dimension.moran_oracle",
    "dimension.cylinder_measure", "dimension.conformality_residual",
    "cheb.eval01",
)
COUNTS = (
    "fixedpoint.newton_iters", "fixedpoint.degree_doublings",
    "fixedpoint.cache_rejects", "fixedpoint.save.bytes",
    "unimodal.critical_orbit.steps", "unimodal.orbit_clamps",
    "presentation.j_margin_widenings",
    "presentation.letter_jets.letter_points",
    "dimension.k_escalations", "dimension.K_final.l20",
    "dimension.moran.words",
    "cheb.eval01.points", "cheb.eval01.terms",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.solve_iters = {}
        self.patched = []
        self.missing = []

    # --- spans -----------------------------------------------------------

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out
        return wrapper

    # --- wrappers with counters ------------------------------------------

    def _solve(self, fn):
        def after(idx, args, kwargs, out):
            self.solve_iters[idx] = int(out.solver_meta.get("iterations", 0))
        return self._span("fixedpoint.solve", fn, after)

    def _continue(self, fn):
        def after(idx, args, kwargs, out):
            prev = args[0] if args else kwargs["prev"]
            if out.degree > prev.degree:
                self.counts["fixedpoint.degree_doublings"] += 1
        return self._span("fixedpoint.solve", fn, after)

    def _load(self, fn):
        from feigdim.errors import FeigdimError
        inner = self._span("fixedpoint.load", fn)

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except FeigdimError:
                self.counts["fixedpoint.cache_rejects"] += 1
                raise
        return wrapper

    def _save(self, fn):
        def after(idx, args, kwargs, out):
            self.counts["fixedpoint.save.bytes"] += os.path.getsize(out)
        return self._span("fixedpoint.save", fn, after)

    def _critical_orbit(self, fn):
        sig = inspect.signature(fn)
        inner = self._span("unimodal.critical_orbit", fn)

        def wrapper(*args, **kwargs):
            n = sig.bind(*args, **kwargs).arguments["n"]
            self.counts["unimodal.critical_orbit.steps"] += int(n)
            # Record, count, then re-emit: clamp warnings are never silenced.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = inner(*args, **kwargs)
            for w in caught:
                if "critical orbit clamped" in str(w.message):
                    self.counts["unimodal.orbit_clamps"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)
            return out
        return wrapper

    def _build_presentation(self, fn):
        sig = inspect.signature(fn)

        def after(idx, args, kwargs, out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            lo, hi = out.I
            margin = (lo - out.J[0]) / (hi - lo)
            if margin > bound.arguments["j_margin"] + 1e-9:
                self.counts["presentation.j_margin_widenings"] += 1
        return self._span("presentation.build", fn, after)

    def _letter_jets(self, fn):
        """Generator wrapper: a span per resumption, so consumer time between
        letters stays with the caller's span."""
        name = "presentation.letter_jets"
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            npts = int(np.size(sig.bind(*args, **kwargs).arguments["x"]))
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[name + ".letter_points"] += npts
                yield item
        return wrapper

    def _hausdorff_dimension(self, fn):
        def after(idx, args, kwargs, out):
            obj = args[0] if args else kwargs["obj"]
            ell = getattr(obj, "ell", None)
            if ell is None:
                ell = getattr(getattr(obj, "sys", None), "ell", None)
            if ell == 20:
                key = "dimension.K_final.l20"
                self.counts[key] = max(self.counts[key], int(out.K))
        return self._span("dimension.hausdorff_dimension", fn, after)

    def _moran_oracle(self, fn):
        def after(idx, args, kwargs, out):
            self.counts["dimension.moran.words"] += int(out.K) ** int(out.n)
        return self._span("dimension.moran_oracle", fn, after)

    def _eval01(self, fn):
        counts, open_, close = self.counts, self.open, self.close

        def wrapper(coeffs, u):
            npts = np.size(u)
            counts["cheb.eval01.calls"] += 1
            counts["cheb.eval01.points"] += npts
            counts["cheb.eval01.terms"] += npts * len(coeffs)
            idx = open_("cheb.eval01")
            try:
                return fn(coeffs, u)
            finally:
                close(idx)
        return wrapper

    # --- installation ----------------------------------------------------

    def _targets(self):
        plain = self._span
        return (
            ("feigdim.fixedpoint", "solve_fixed_point", self._solve),
            ("feigdim.fixedpoint", "continue_in_ell", self._continue),
            ("feigdim.fixedpoint", "load_fixed_point", self._load),
            ("feigdim.fixedpoint", "save_fixed_point", self._save),
            ("feigdim.unimodal", "build_system",
             lambda fn: plain("unimodal.build_system", fn)),
            ("feigdim.unimodal", "critical_orbit", self._critical_orbit),
            ("feigdim.presentation", "build_presentation",
             self._build_presentation),
            ("feigdim.presentation", "contraction_certificate",
             lambda fn: plain("presentation.contraction_certificate", fn)),
            ("feigdim.presentation", "tail_bound",
             lambda fn: plain("presentation.tail_bound", fn)),
            ("feigdim.presentation", "iter_letter_jets", self._letter_jets),
            ("feigdim.dimension", "hausdorff_dimension",
             self._hausdorff_dimension),
            ("feigdim.dimension", "build_pressure_model",
             lambda fn: plain("dimension.pressure_model", fn)),
            ("feigdim.dimension", "pressure_eigen",
             lambda fn: plain("dimension.pressure_eigen", fn)),
            ("feigdim.dimension", "moran_oracle", self._moran_oracle),
            ("feigdim.dimension", "cylinder_measure",
             lambda fn: plain("dimension.cylinder_measure", fn)),
            ("feigdim.dimension", "conformality_residual",
             lambda fn: plain("dimension.conformality_residual", fn)),
            ("feigdim.cheb", "eval01", self._eval01),
        )

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "feigdim" or name.startswith("feigdim.")]
        for home, attr, factory in self._targets():
            orig = getattr(sys.modules[home], attr, None)
            if orig is None:
                # A renamed function loses its metrics, not the whole run;
                # the layer check still fails if a layer disappears.
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = factory(orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapper)
                    self.patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)

    def self_check(self):
        """Problems with the trace: unrestored names (feigdim.cheb.eval01
        among them) or unseen layers."""
        problems = [f"{mod.__name__}.{attr} still wrapped"
                    for mod, attr, orig in self.patched
                    if getattr(mod, attr) is not orig]
        seen = {self.names[nid].split(".")[0] for nid in set(self.name_of)}
        problems += [f"layer {layer} absent from the trace"
                     for layer in LAYERS if layer not in seen]
        return problems

    # --- reduction -------------------------------------------------------

    def metrics(self):
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = Counter()
        for i in range(n):
            self_s[self.names[self.name_of[i]]] += dur[i] - child[i]

        solve = self.name_ids.get("fixedpoint.solve", -2)
        solve_parents = {self.parent[i] for i in range(n)
                         if self.name_of[i] == solve}
        # Only leaf solves ran Newton; outer ones report a copied count.
        newton = sum(it for idx, it in self.solve_iters.items()
                     if idx not in solve_parents)

        hd = self.name_ids.get("dimension.hausdorff_dimension", -2)
        pm = self.name_ids.get("dimension.pressure_model", -2)
        models = Counter()
        for i in range(n):
            if self.name_of[i] != pm:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != hd:
                p = self.parent[p]
            if p >= 0:
                models[p] += 1
        escalations = sum(c - 1 for c in models.values())

        out = {}
        for name in TIMED:
            out[name + ".s"] = self_s[name]
            out[name + ".calls"] = self.counts[name + ".calls"]
        for name in COUNTS:
            out[name] = self.counts[name]
        out["fixedpoint.newton_iters"] = newton
        out["dimension.k_escalations"] = escalations
        out["trace.spans"] = n
        return out
