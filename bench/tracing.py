"""Spans and per-layer counters for the traced benchmark run.

`install` wraps each function in TRACED and rebinds the wrapper in every
braceforge module that holds the function under any name (so
`structure.sub_brace` and `ybe.sub_brace` are both traced); `uninstall`
puts the originals back.  While the tracer is active, each call records a
span (id, parent, op id, name, start, end) in memory and adds to per-function
self time (duration minus the time of traced callees) and call counts.  Work
between traced calls is charged to the op's root span, named "op".
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter

TRACED = (
    "catalog.groups_of_order",
    "groups.validate_group",
    "groups.subgroups",
    "groups.automorphism_group",
    "groups.group_isomorphism",
    "groups.regular_subgroups",
    "construct.enumerate_braces",
    "construct.enumerate_braces_on",
    "construct.brace_from_regular_subgroup",
    "construct.simple_inner_regular_subgroups",
    "braces.validate_brace",
    "braces.sub_brace",
    "braces.quotient",
    "braces.classify_subset",
    "structure.all_ideals",
    "structure.commutator",
    "structure.derived_series",
    "structure.chief_series",
    "structure.classify_chief_factor",
    "structure.maximal_subbraces",
    "structure.annihilator_quotient_test",
    "structure.verify_soluble_chief_factors",
    "ybe.validate_solution",
    "ybe.solution_from_brace",
    "ybe.r_closed_subsets",
    "ybe.coset_partition",
    "ybe.verify_multidecomposition",
    "ybe.multidecomposition_from_series",
    "ybe.ideal_coset_decomposition",
    "ybe.embedded_multidecomposition",
    "jsonio.load_brace_data",
    "jsonio.load_solution_data",
)
ROOT = "op"
NAMES = TRACED + (ROOT,)
INDEX = {name: k for k, name in enumerate(NAMES)}

# per-layer metrics derived from counters rather than read off one function
DERIVED = (
    ("groups.regular_subgroups.found", "count", "lower"),
    ("construct.dedup_ratio", "ratio", "higher"),
    ("braces.validate_brace.calls_per_op", "calls/op", "lower"),
    ("braces.sub_brace.distinct_ratio", "ratio", "higher"),
    ("ybe.solution_from_brace.calls_per_brace", "calls/brace", "lower"),
    ("jsonio.rejected", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    out = []
    for name in TRACED:
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]
    return out


class Tracer:
    """In-memory spans plus self time, calls and raised errors per function."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.active = False
        self.op_id = 0
        self.current_op = 0  # op id of the spans being recorded; 0 outside ops
        self._next_id = 0
        self._stack: list[list] = []  # [span id, seconds spent in traced callees]
        self.spans = {key: array(code) for key, code in
                      (("id", "q"), ("parent", "q"), ("op", "q"), ("name", "H"),
                       ("start", "d"), ("end", "d"))}
        self.dropped = 0
        self.reset()

    def reset(self) -> None:
        """Clear the counters (not the spans) before a new phase."""
        k = len(NAMES)
        self.self_s = [0.0] * k
        self.calls = [0] * k
        self.errors = [0] * k
        self.ops = 0
        self.found = self.classes = self.raw = self.sub_distinct = 0
        self._solved: dict[int, object] = {}  # id -> brace, kept alive so ids stay unique
        self._op_subs: set = set()
        self._op_refs: list = []

    # --- recording ------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1
        self.current_op = self.op_id
        self._op_subs.clear()
        self._op_refs.clear()
        self._stack.append([self._new_id(), 0.0, perf_counter()])
        self.active = True

    def end_op(self) -> None:
        t1 = perf_counter()
        self.active = False
        sid, child, t0 = self._stack.pop()
        self._account(INDEX[ROOT], sid, -1, t0, t1, child)
        self.current_op = 0
        self.ops += 1

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _account(self, k, sid, parent, t0, t1, child) -> None:
        d = t1 - t0
        self.self_s[k] += d - child
        self.calls[k] += 1
        if self._stack:
            self._stack[-1][1] += d
        spans = self.spans
        if len(spans["id"]) < self.span_cap:
            spans["id"].append(sid)
            spans["parent"].append(parent)
            spans["op"].append(self.current_op)
            spans["name"].append(k)
            spans["start"].append(t0)
            spans["end"].append(t1)
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        k = INDEX[name]
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            sid = tracer._new_id()
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[k] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._account(k, sid, parent, t0, t1, frame[1])
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # --- results --------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self time and calls of every traced function, plus ratios."""
        out: dict[str, float] = {}
        for name in TRACED:
            k = INDEX[name]
            out[f"{name}.self_s"] = self.self_s[k] / passes
            out[f"{name}.calls"] = self.calls[k] / passes
        vb = self.calls[INDEX["braces.validate_brace"]]
        sb = self.calls[INDEX["braces.sub_brace"]]
        sol = self.calls[INDEX["ybe.solution_from_brace"]]
        out["groups.regular_subgroups.found"] = self.found / passes
        out["construct.dedup_ratio"] = self.classes / self.raw if self.raw else 0.0
        out["braces.validate_brace.calls_per_op"] = vb / self.ops if self.ops else 0.0
        out["braces.sub_brace.distinct_ratio"] = self.sub_distinct / sb if sb else 0.0
        out["ybe.solution_from_brace.calls_per_brace"] = sol / len(self._solved) if self._solved else 0.0
        out["jsonio.rejected"] = (self.errors[INDEX["jsonio.load_brace_data"]]
                                  + self.errors[INDEX["jsonio.load_solution_data"]]) / passes
        return out

    def write(self, path: Path) -> int:
        """Write the recorded spans as gzipped tab-separated lines; returns the count."""
        spans = self.spans
        n = len(spans["id"])
        base = min(spans["start"]) if n else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(n):
                fh.write(f"{spans['id'][i]}\t{spans['parent'][i]}\t{spans['op'][i]}\t"
                         f"{NAMES[spans['name'][i]]}\t{spans['start'][i] - base:.9f}\t"
                         f"{spans['end'][i] - base:.9f}\n")
        return n


def _found(tracer: Tracer, args, result) -> None:
    tracer.found += len(result)


def _classes(tracer: Tracer, args, result) -> None:
    tracer.classes += len(result)


def _raw(tracer: Tracer, args, result) -> None:
    tracer.raw += len(result)


def _sub_brace(tracer: Tracer, args, result) -> None:
    brace, subset = args[0], args[1]
    if not isinstance(subset, (frozenset, set, list, tuple)):
        return  # an iterator was consumed by the call; cannot key it
    key = (id(brace), frozenset(subset))
    if key not in tracer._op_subs:
        tracer._op_subs.add(key)
        tracer._op_refs.append(brace)
        tracer.sub_distinct += 1


def _solved(tracer: Tracer, args, result) -> None:
    tracer._solved.setdefault(id(args[0]), args[0])


_OBSERVERS = {
    "groups.regular_subgroups": _found,
    "construct.enumerate_braces": _classes,
    "construct.enumerate_braces_on": _raw,
    "braces.sub_brace": _sub_brace,
    "ybe.solution_from_brace": _solved,
}


def install(tracer: Tracer) -> list[tuple]:
    """Rebind a traced wrapper wherever a braceforge module holds a TRACED function."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "braceforge" or n.startswith("braceforge.")]
    saved = []
    for name in TRACED:
        module, attr = name.split(".")
        original = getattr(sys.modules["braceforge." + module], attr)
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    saved.append((m, key, original))
                    setattr(m, key, wrapper)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, key, original in reversed(saved):
        setattr(module, key, original)
