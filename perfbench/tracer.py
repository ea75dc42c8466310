"""Outside-in tracer: wraps the library's public functions from here.

The library has no tracing of its own.  ``Tracer.install`` replaces every
public function of each layer module, plus a few hot methods, by a wrapper
that times the call and counts it, and then rebinds every name in every
``ainfkit`` module that still points at an original.  The rebinding matters:
``from .gapped import monoid_norm`` gives ``ainfty`` and ``transfer`` their
own reference, so patching only ``gapped`` would miss those call sites.

A wrapped call is a span.  Its layer's self time is the span's duration minus
the time of the spans it encloses, so self times add up to the time spent
inside wrapped calls.  Spans are folded into per-layer totals as they close,
not kept one by one: the hot layers make millions of calls per run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ainfkit"
LAYERS = ("novikov", "gapped", "gradedcore", "ainfty", "transfer", "linalg",
          "floer", "novmat", "cli")

# Public methods worth a span: the per-term constructor, monoid membership,
# table lookup and Novikov matrix products.
METHODS = (
    ("novikov", "NovikovElement", "make", True),
    ("gapped", "EnergyMonoid", "contains", False),
    ("gradedcore", "OperationSystem", "table", False),
    ("novmat", "NovMatrix", "matmul", False),
)

# ``as_fraction`` is a one-line type coercion called inside every other
# novikov function; a span around it would cost more than the work it times.
SKIP = {("novikov", "as_fraction")}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.incl_s = defaultdict(float)   # function -> outermost-call seconds
        self.calls = Counter()             # function -> calls
        self.counts = Counter()            # derived counters, see _after
        self.active = False
        self._stack = []                   # [function name, child seconds]
        self._depth = Counter()            # function -> open spans
        self._enum = None                  # the original monoid_elements

    # -- installation ---------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, value in list(vars(module).items()):
                if (name.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__
                        or (layer, name) in SKIP):
                    continue
                originals[id(value)] = (value, self._wrap(layer, f"{layer}.{name}", value))
            if layer == "gapped":
                self._enum = module.monoid_elements
        for layer, cls_name, meth, static in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            fn = fn.__func__ if static else fn
            wrapper = self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn)
            setattr(cls, meth, staticmethod(wrapper) if static else wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    def _wrap(self, layer, qualname, fn):
        stack, self_s, incl_s, calls, depth = (
            self._stack, self.self_s, self.incl_s, self.calls, self._depth)
        clock = time.perf_counter
        after = self._after

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [qualname, 0.0]
            stack.append(frame)
            depth[qualname] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                depth[qualname] -= 1
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not depth[qualname]:
                    incl_s[qualname] += elapsed
                calls[qualname] += 1
            after(qualname, result)
            return result

        return span

    def _after(self, qualname, result):
        """Counters that need the call's result or its surroundings."""
        if qualname == "gradedcore.OperationSystem.table":
            if result is not None:
                self.counts["table_hits"] += 1
            if self._depth["transfer.minimal_model"]:
                self.counts["model_lookups"] += 1
        elif qualname == "gapped.monoid_elements":
            misses = self._enum.cache_info().misses
            if misses != self.counts["enum_misses_seen"]:
                self.counts["enum_misses_seen"] = misses
                self.counts["enum_miss_elements"] += len(result)
        elif qualname == "floer.mc_residual" and self._depth["floer.mc_solve"]:
            self.counts["solve_residuals"] += 1
        elif qualname == "novmat.smith_valuations":
            self.counts["smith_pivots"] += len(result)
        elif qualname == "transfer.minimal_model":
            model, incl = result
            self.counts["model_entries"] += sum(
                len(outs) for sys_ in (model, incl)
                for t in sys_.tables.values() for outs in t.entries.values())
        elif qualname == "cli.emit_report":
            self.counts["bytes_out"] += len(result.encode("utf-8"))

    # -- control --------------------------------------------------------

    def start(self):
        info = self._enum.cache_info()
        self._enum_start = (info.hits, info.misses)
        self._enum_paused = (0, 0)
        self.counts["enum_misses_seen"] = info.misses
        self.active = True

    def stop(self):
        self.active = False
        info = self._enum.cache_info()
        self._enum_delta = (info.hits - self._enum_start[0] - self._enum_paused[0],
                            info.misses - self._enum_start[1] - self._enum_paused[1])

    @contextlib.contextmanager
    def paused(self):
        """The benchmark's own checks run untraced inside this.  The cache
        counters of ``monoid_elements`` keep counting while paused, so their
        movement here is taken out of the traced deltas."""
        was, self.active = self.active, False
        before = self._enum.cache_info()
        try:
            yield
        finally:
            after = self._enum.cache_info()
            self._enum_paused = (self._enum_paused[0] + after.hits - before.hits,
                                 self._enum_paused[1] + after.misses - before.misses)
            self.counts["enum_misses_seen"] = after.misses
            self.active = was

    def reset(self):
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counts.clear()

    # -- results --------------------------------------------------------

    def summary(self, jobs: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}; times and counts are
        per job, ratios are over the whole traced loop."""
        per = 1.0 / max(jobs, 1)
        c, n = self.calls, self.counts
        hits, misses = self._enum_delta
        lookups = c["gradedcore.OperationSystem.table"]
        out = {f"{layer}.self_s": (self.self_s[layer] * per, "s")
               for layer in LAYERS if layer != "cli"}
        counts = {
            "gapped.norm_calls": c["gapped.monoid_norm"],
            "gapped.contains_calls": c["gapped.EnergyMonoid.contains"],
            "gapped.enum_calls": c["gapped.monoid_elements"],
            "gapped.enum_miss_elements": n["enum_miss_elements"],
            "gradedcore.table_lookups": lookups,
            "gradedcore.defect_calls": c["gradedcore.relation_defect"],
            "ainfty.keys_checked": (c["gradedcore.relation_defect"]
                                    + c["ainfty.morphism_defect"]),
            "linalg.row_reduce_calls": c["linalg.row_reduce"],
            "novikov.make_calls": c["novikov.NovikovElement.make"],
            "novikov.ops": sum(c[f"novikov.nov_{op}"]
                               for op in ("add", "mul", "sub", "invert")),
            "floer.residual_calls": c["floer.mc_residual"],
            "floer.mc_levels": n["solve_residuals"] - c["floer.mc_solve"],
            "novmat.smith_calls": c["novmat.smith_valuations"],
            "novmat.smith_pivots": n["smith_pivots"],
        }
        out.update({name: (value * per, "count") for name, value in counts.items()})
        out.update({
            "gapped.enum_hit_ratio": (hits / max(hits + misses, 1), "1"),
            "gradedcore.table_hit_ratio": (n["table_hits"] / max(lookups, 1), "1"),
            "transfer.lookups_per_entry": (
                n["model_lookups"] / max(n["model_entries"], 1), "1"),
            "cli.render_s": ((self.incl_s["cli.document_json"]
                              + self.incl_s["cli.emit_report"]) * per, "s"),
            "cli.bytes_out": (n["bytes_out"] * per, "bytes"),
        })
        return out
