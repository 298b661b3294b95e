"""Span tracing of embform's public functions, installed from outside.

The package binds names with ``from .ratlin import scale_primitive``-style
imports, so one function object is reachable under several module
attributes.  ``Tracer.install`` wraps each listed function once and
rebinds the wrapper in every ``embform`` module attribute that holds the
original object; ``uninstall`` puts the originals back.  A listed name
that a later version of the package no longer defines is recorded as
absent instead of failing the run.

Spans (name, start, end, parent, item) live in compact arrays while the
round runs and are written to a binary file at the end of the process.
Per-layer metrics are derived from them afterwards: self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from pathlib import Path

# Functions traced per module, in the order the per-layer metrics list them.
TARGETS = {
    "ratlin": ("rank", "rref", "nullspace_basis", "scale_primitive", "canonical_normal", "dot"),
    "encodings": ("geometry", "random_binary"),
    "sos2": ("spanned_hyperplanes", "bound_index_set", "build_sos2", "canonical_form", "substitute"),
    "polyhedra": ("vrep_to_hrep", "hrep_to_vrep", "dual_description"),
    "pwl2d": ("embed_and_hull", "graph_formulation", "recover_encoding"),
    "experiments": ("scan_binary_encodings", "size_g"),
    "fileio": ("export_lp", "formulation_to_json", "formulation_from_json"),
}

# ``dot`` runs once per ray per inserted row inside the DD core; only its
# call count is wanted, so it is counted without a span.
COUNT_ONLY = {"ratlin.dot"}

# Functions whose per-call latency distribution is reported.
LATENCY = ("sos2.spanned_hyperplanes", "polyhedra.vrep_to_hrep", "polyhedra.hrep_to_vrep", "experiments.size_g")

# Percentiles tried for ``tail_ms``, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _embform_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "embform" or n.startswith("embform."))]


def _is_wrapper(obj) -> bool:
    return getattr(obj, "_bench_traced", False) is True


def assert_untraced() -> list[str]:
    """Check that every listed name is bound to its original object.

    Returns the listed names the package does not define.  Raises
    AssertionError when a wrapper is left in any package module, or a
    module holds another copy of a listed function than its home module.
    """
    modules = _embform_modules()
    for mod in modules:
        for attr, value in vars(mod).items():
            if _is_wrapper(value):
                raise AssertionError(f"{mod.__name__}.{attr} is still traced")
    absent = []
    for mod_name, names in TARGETS.items():
        home = sys.modules.get(f"embform.{mod_name}")
        for name in names:
            original = getattr(home, name, None) if home else None
            if original is None:
                absent.append(f"{mod_name}.{name}")
                continue
            for mod in modules:
                bound = vars(mod).get(name)
                if bound is not None and bound is not original \
                        and getattr(bound, "__module__", None) == original.__module__:
                    raise AssertionError(f"{mod.__name__}.{name} is not the original object")
    return absent


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.extra: dict[int, tuple] = {}
        self.sh_args: list = []  # geometry argument of every spanned_hyperplanes call
        self.current_item = -1
        self._stack = [-1]
        self._patched: list[tuple] = []

    # -- installation --------------------------------------------------

    def install(self):
        modules = _embform_modules()
        for mod_name, names in TARGETS.items():
            home = sys.modules.get(f"embform.{mod_name}")
            for name in names:
                original = getattr(home, name, None) if home else None
                if original is None or not callable(original):
                    continue  # absent: reported by assert_untraced
                qual = f"{mod_name}.{name}"
                wrapper = self._count(qual, original) if qual in COUNT_ONLY else self._span(qual, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self, item: int):
        """Tag the spans that follow with the index of the item being run."""
        self.current_item = item

    def _count(self, qual, fn):
        counts = self.counts
        counts[qual] = 0

        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        wrapper._bench_traced = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, qual, fn):
        nid = len(self.names)
        self.names.append(qual)
        name_id, parent, item, start, end = self.name_id, self.parent, self.item, self.start, self.end
        stack, extra, clock = self._stack, self.extra, time.perf_counter_ns
        hook = _HOOKS.get(qual)
        sh_args = self.sh_args if qual == "sos2.spanned_hyperplanes" else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            item.append(self.current_item)
            start.append(0)
            end.append(0)
            stack.append(idx)
            if sh_args is not None:
                sh_args.append(args[0] if args else kwargs.get("geom"))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                extra[idx] = hook(args, result)
            return result

        wrapper._bench_traced = True
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------

    def write(self, path: Path):
        """Write the spans: a JSON header line, then the raw arrays in order
        name_id (u16), parent (i32), item (i32), start (i64 ns), end (i64 ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start), "counts": self.counts,
                  "arrays": ["name_id:H", "parent:i", "item:i", "start:q", "end:q"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.item, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per-function aggregates that can be summed across processes."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {q: {"calls": 0, "self_ns": 0, "incl_ns": 0} for q in self.names}
        for q, c in self.counts.items():
            out[q] = {"calls": c, "self_ns": 0, "incl_ns": 0}
        lat = {q: [] for q in LATENCY if q in out}
        names = self.names
        for i in range(n):
            q = names[self.name_id[i]]
            agg = out[q]
            agg["calls"] += 1
            agg["incl_ns"] += dur[i]
            agg["self_ns"] += dur[i] - child[i]
            if q in lat:
                lat[q].append(dur[i])
        for q, values in lat.items():
            out[q]["durations_ns"] = values
        for idx, value in self.extra.items():
            q = names[self.name_id[idx]]
            agg = out[q]
            for key, v in value.items():
                agg[key] = agg.get(key, 0) + v
            if q == "polyhedra.hrep_to_vrep":
                p = self.parent[idx]
                if p >= 0 and names[self.name_id[p]] == "pwl2d.recover_encoding":
                    rec = out["pwl2d.recover_encoding"]
                    rec["slices"] = rec.get("slices", 0) + 1
                    rec["hits"] = rec.get("hits", 0) + 1 - value["empty"]
        if "sos2.spanned_hyperplanes" in out:
            seen = set()
            repeats = 0
            for geom in self.sh_args:
                key = frozenset(_canonical(d) for d in geom.diffs if any(d))
                repeats += key in seen
                seen.add(key)
            out["sos2.spanned_hyperplanes"]["repeats"] = repeats
        return out


def _canonical(d):
    g = 0
    for x in d:
        g = math.gcd(g, int(x))
    first = next(x for x in d if x)
    g = g if first > 0 else -g
    return tuple(int(x) // g for x in d)


_HOOKS = {
    "polyhedra.vrep_to_hrep": lambda args, r: {"facets_out": len(r.inequalities)},
    "polyhedra.hrep_to_vrep": lambda args, r: {"empty": int(r.is_empty)},
    "polyhedra.dual_description": lambda args, r: {"rows_in": len(args[0]), "rays_out": len(r[1])},
    "fileio.export_lp": lambda args, r: {"bytes": len(r.content)},
}


def merge(summaries: list[dict]) -> dict:
    """Sum per-function aggregates from several traced processes."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for q, agg in summary.items():
            dst = out.setdefault(q, {})
            for key, value in agg.items():
                if isinstance(value, list):
                    dst.setdefault(key, []).extend(value)
                else:
                    dst[key] = dst.get(key, 0) + value
    return out


def _percentile(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(durations_ns: list[int]) -> tuple[float, float]:
    """(percentile, value in ms) of the highest ladder percentile with at
    least ten samples beyond it; (0, 0) when no percentile qualifies."""
    n = len(durations_ns)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            return pct, _percentile(sorted(durations_ns), pct) / 1e6
    return 0.0, 0.0


def layer_metrics(agg: dict, overhead_ratio: float, descriptors: dict, spec: list) -> dict:
    """Every per-layer metric of ``spec`` (BENCHMARK.json's ``per_layer``)
    by name, as {"value", "unit"}; zero where the function was absent or
    never called."""

    def get(q, key):
        return agg.get(q, {}).get(key, 0)

    values = {}
    for q, stats in agg.items():
        values[f"{q}.calls"] = stats.get("calls", 0)
        values[f"{q}.self_s"] = stats.get("self_ns", 0) / 1e9
        durations = stats.get("durations_ns")
        if durations is not None:
            values[f"{q}.p50_ms"] = _percentile(sorted(durations), 50) / 1e6 if durations else 0.0
            values[f"{q}.tail_pct"], values[f"{q}.tail_ms"] = tail(durations)
    calls = get("sos2.spanned_hyperplanes", "calls")
    values["sos2.spanned_hyperplanes.repeat_ratio"] = get("sos2.spanned_hyperplanes", "repeats") / calls if calls else 0.0
    values["polyhedra.vrep_to_hrep.facets_out"] = get("polyhedra.vrep_to_hrep", "facets_out")
    calls = get("polyhedra.hrep_to_vrep", "calls")
    values["polyhedra.hrep_to_vrep.empty_ratio"] = get("polyhedra.hrep_to_vrep", "empty") / calls if calls else 0.0
    rows = get("polyhedra.dual_description", "rows_in")
    values["polyhedra.dual_description.rows_in"] = rows
    values["polyhedra.dual_description.rays_out"] = get("polyhedra.dual_description", "rays_out")
    values["polyhedra.dual_description.us_per_row"] = (
        get("polyhedra.dual_description", "incl_ns") / 1e3 / rows if rows else 0.0)
    slices = get("pwl2d.recover_encoding", "slices")
    values["pwl2d.recover_encoding.slices"] = slices
    values["pwl2d.recover_encoding.hit_ratio"] = get("pwl2d.recover_encoding", "hits") / slices if slices else 0.0
    values["fileio.export_lp.bytes"] = get("fileio.export_lp", "bytes")
    values["trace.overhead_ratio"] = overhead_ratio
    values["input.direction_set_repeat_ratio"] = descriptors.get("direction_set_repeat_ratio", 0.0)
    values["input.slices_per_member"] = descriptors.get("slices_per_member", 0.0)
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}
