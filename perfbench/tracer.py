"""Outside-in tracing of etaforms' layers for the benchmark's traced runs.

The tracer wraps public entry points of each module (listed in TARGETS) by
replacing class and module attributes; nothing inside etaforms is edited.
Each wrapped call records a span (id, parent, name, start, end) in memory;
the hot L0 kernel calls (QSeries construction, +, *, reciprocal) are only
aggregated into per-name totals, so that a traced run stays close to an
untraced one.  Self time is a span's duration minus its child calls.
``remove`` puts every original attribute back.

Counts derived here (calls, coefficient products, families, distinct
expansions, saved bytes) depend only on the program's inputs and code, so
two traced runs of the same code give identical counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

# (module, attribute, span name); names starting with "series." are
# aggregated kernel calls, all others are recorded as spans.
TARGETS = (
    ("etaforms.series", "QSeries.__init__", "series.init"),
    ("etaforms.series", "QSeries.__add__", "series.add"),
    ("etaforms.series", "QSeries.__mul__", "series.mul"),
    ("etaforms.series", "QSeries.reciprocal", "series.recip"),
    ("etaforms.eta", "eta_unit", "eta.unit"),
    ("etaforms.eta", "EtaQuotient.series", "eta.quotient_series"),
    ("etaforms.leveldata", "LevelData.hauptmodul_series", "leveldata.hauptmodul"),
    ("etaforms.leveldata", "LevelData.weight_form_series", "leveldata.weight_form"),
    ("etaforms.leveldata", "LevelData.aux_alt_series", "leveldata.aux_alt"),
    ("etaforms.leveldata", "LevelData.aux_cusp_series", "leveldata.aux_cusp"),
    ("etaforms.basis", "BasisCache.family", "basis.family"),
    ("etaforms.basis", "BasisCache.element", "basis.cache_element"),
    ("etaforms.basis", "BasisCache.save", "basis.save"),
    ("etaforms.basis", "_Family.element", "basis.element"),
    ("etaforms.verify", "duality_check", "verify.duality"),
    ("etaforms.verify", "genfun_check", "verify.genfun"),
    ("etaforms.verify", "theta_check", "verify.theta"),
    ("etaforms.verify", "up_lemma_check", "verify.uplemma"),
    ("etaforms.verify", "al_identity_check", "verify.al"),
    ("etaforms.verify", "congruence_scan", "verify.scan"),
    ("etaforms.cli", "main", "cli.main"),
)

CHECKS = ("duality", "genfun", "theta", "uplemma", "al", "scan")


def truncated_products(len_a: int, len_b: int, out_len: int) -> int:
    """Coefficient products of a Cauchy product truncated to out_len terms:
    the pairs (i, j) with i < len_a, j < len_b and i + j < out_len."""
    top = min(len_a, out_len)
    if top <= 0 or len_b <= 0:
        return 0
    full = max(0, min(top, out_len - len_b))       # rows that use all of b
    rest = top - full                               # rows cut by out_len
    first, last = out_len - full, out_len - top + 1
    return full * len_b + rest * (first + last) // 2


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.layer_outer: dict[str, float] = {}   # outermost time per layer
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []        # per open call: [child_s]
        self._span_stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []     # (owner, attr, original)
        self._families: dict[int, object] = {}
        self._family_keys: set = set()
        self._loaded_keys: set = set()
        self._expansions: set = set()
        self._series_type = None

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "series.mul": self._after_mul,
            "basis.family": self._after_family,
            "basis.element": self._after_element,
            "basis.save": self._after_save,
            "verify.scan": self._after_scan,
            "verify.duality": self._after_duality,
            "verify.genfun": self._after_genfun,
        }
        # import every target module first, so that names one module imported
        # from another (cli's verify functions) exist when the sweep below
        # rebinds them, and are recorded for remove()
        modules = {name: importlib.import_module(name) for name, _, _ in TARGETS}
        self._series_type = modules["etaforms.series"].QSeries
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            hook = hooks.get(name)
            if name.startswith("leveldata."):
                hook = functools.partial(self._after_expansion, name)
            skip = self._scalar_operand if name == "series.mul" else None
            wrapper = self._wrap(original, name, hook, skip)
            if owner is module:
                # rebind every etaforms module that imported the function
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "etaforms" or mod is None:
                        continue
                    for bound_name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, bound_name, original))
                            setattr(mod, bound_name, wrapper)
            else:
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def removed_cleanly(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self._patches)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, hook, skip):
        layer = name.split(".")[0]
        leaf = layer == "series"
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        depth, outer = self._depth, self.layer_outer
        depth.setdefault(layer, 0)
        outer.setdefault(layer, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            if not leaf:
                span_id = len(spans) + len(span_stack)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                depth[layer] -= 1
                if not depth[layer]:
                    outer[layer] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if not leaf:
                    span_stack.pop()
                    spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return wrapper

    def _count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _scalar_operand(self, args) -> bool:
        return not isinstance(args[1], self._series_type)

    def _after_mul(self, args, kwargs, result, dur):
        a, b = args[0], args[1]
        if a.coeffs and b.coeffs:
            out_len = min(a.prec + b.valuation, b.prec + a.valuation) - a.valuation - b.valuation
            self._count("series.mul_products", truncated_products(len(a.coeffs), len(b.coeffs), out_len))

    def _see_family(self, fam) -> None:
        # strong references keep ids unique for the whole run
        self._families.setdefault(id(fam), fam)

    def _after_family(self, args, kwargs, result, dur):
        cache, key = args[0], (id(args[0]),) + tuple(args[1:4])
        self._see_family(result)
        self._family_keys.add(key)
        if getattr(cache, "directory", None) and key not in self._loaded_keys:
            self._loaded_keys.add(key)
            self._count("basis.load_s", dur)

    def _after_element(self, args, kwargs, result, dur):
        self._see_family(args[0])

    def _after_save(self, args, kwargs, result, dur):
        self._count("basis.save_bytes", sum(os.path.getsize(p) for p in result or ()))

    def _after_expansion(self, name, args, kwargs, result, dur):
        data = args[0]
        self._expansions.add((getattr(data, "N", id(data)), name)
                             + tuple(args[1:]) + tuple(sorted(kwargs.items())))

    def _after_scan(self, args, kwargs, result, dur):
        self._count("verify.scan_rows", len(result[0]))

    def _after_duality(self, args, kwargs, result, dur):
        self._count("verify.duality_pairs", result.details.get("pairs", 0))

    def _after_genfun(self, args, kwargs, result, dur):
        self._count("verify.genfun_cells", result.details.get("cells", 0))

    # -- output --------------------------------------------------------------

    def raw(self) -> dict:
        """Aggregates that add up across processes (see merge)."""
        counters = dict(self.counters)
        counters["basis.families_built"] = len(self._families)
        counters["basis.family_keys"] = len(self._family_keys)
        counters["leveldata.expansion_distinct"] = len(self._expansions)
        counters["trace.missing_targets"] = len(self.missing)
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "layer_outer": dict(self.layer_outer), "counters": counters}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing, **self.raw()}, fh)


def merge(raws) -> dict:
    out = {"stats": {}, "layer_outer": {}, "counters": {}}
    for raw in raws:
        for name, (calls, total, self_s) in raw["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for part in ("layer_outer", "counters"):
            for key, value in raw[part].items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values (without the cli.* ones) from merged aggregates."""
    stats, counters = raw["stats"], raw["counters"]

    def stat(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i]

    m = {}
    for op in ("mul", "recip", "add", "init"):
        m[f"series.{op}_calls"] = stat(f"series.{op}", 0)
        m[f"series.{op}_s"] = stat(f"series.{op}", 1)
    m["series.mul_products"] = counters.get("series.mul_products", 0)
    m["series.mul_rate"] = m["series.mul_products"] / m["series.mul_s"] if m["series.mul_s"] else 0.0
    m["eta.unit_calls"] = stat("eta.unit", 0)
    m["eta.unit_s"] = stat("eta.unit", 1)
    m["leveldata.expansion_requests"] = sum(v[0] for k, v in stats.items()
                                            if k.startswith("leveldata."))
    m["leveldata.expansion_distinct"] = counters.get("leveldata.expansion_distinct", 0)
    m["leveldata.expansion_s"] = raw["layer_outer"].get("leveldata", 0.0)
    m["basis.family_requests"] = stat("basis.family", 0)
    m["basis.families_built"] = counters.get("basis.families_built", 0)
    m["basis.family_keys"] = counters.get("basis.family_keys", 0)
    m["basis.build_ratio"] = (m["basis.families_built"] / m["basis.family_keys"]
                              if m["basis.family_keys"] else 0.0)
    m["basis.element_calls"] = stat("basis.element", 0)
    m["basis.element_self_s"] = stat("basis.element", 2) + stat("basis.cache_element", 2)
    m["basis.save_s"] = stat("basis.save", 1)
    m["basis.save_bytes"] = counters.get("basis.save_bytes", 0)
    m["basis.load_s"] = counters.get("basis.load_s", 0.0)
    for check in CHECKS:
        m[f"verify.{check}_self_s"] = stat(f"verify.{check}", 2)
    for key in ("verify.scan_rows", "verify.duality_pairs", "verify.genfun_cells"):
        m[key] = counters.get(key, 0)
    m["trace.missing_targets"] = counters.get("trace.missing_targets", 0)
    return m
