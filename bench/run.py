#!/usr/bin/env python3
"""Benchmark of the braceforge library: one workload per process.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory, and the command fails (exit 2, no result line) when it is not
there.  Set-up (catalog and census build) runs `setup_reps` times and its
median is `setup_s`; the seeded inputs are then made from it, untimed.  Then
whole passes of ops run until their summed op time reaches --seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 traces one set-up, then
runs each pass untraced and again traced until the untraced op time reaches
a third of --seconds, and reports per-pass self time and calls of each traced function, the
derived ratios and trace.overhead_frac; spans go to bench/traces/.

Times are reported at a nominal host speed: a fixed pure-Python reference
loop is timed every 0.1 s of op time, and each op time is multiplied by the
nominal reference time over the median of the probes around it (see
Phase.scaled).  Wall-clock figures are printed above the result line.

Every run checks each op's output, then (untimed) the pinned counters that
need instrumentation and the byte-reproducibility of two CLI commands.  The
last stdout line is a JSON object with correct, attempted, failed and
metrics; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import tempfile
import traceback
import types
from collections import deque
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("errors", "groups", "catalog", "braces", "construct", "structure", "ybe",
           "jsonio", "cli")


class LibraryMissing(Exception):
    pass


def load_library(root: Path) -> types.SimpleNamespace:
    """Import braceforge from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "braceforge" / "__init__.py").is_file():
        raise LibraryMissing(f"no braceforge package under {src}")
    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module("braceforge." + m) for m in MODULES}
    origin = Path(modules["groups"].__file__).resolve()
    if src not in origin.parents:
        raise LibraryMissing(f"braceforge imported from {origin}, not from {src}")
    return types.SimpleNamespace(**modules)


# reference() takes this long at the host speed the bounds were set at; op
# times are rescaled to it, see Phase.scaled.
REFERENCE_NOMINAL_S = 0.00068
PROBE_EVERY_S = 0.1  # op time between two reference probes


def reference() -> float:
    """Time one run of a fixed pure-Python loop (tuple, dict and list work)."""
    gc.disable()
    try:
        t0 = perf_counter()
        seen: dict = {}
        rows = [tuple(range(k, k + 12)) for k in range(12)]
        for i in range(1500):
            row = rows[i % 12]
            key = (row[i % 7], row[(i * 5) % 12])
            seen[key] = seen.get(key, 0) + len(row)
        return perf_counter() - t0
    finally:
        gc.enable()


def host_factor(probes: list[float]) -> float:
    """How much faster the host is than nominal, judged by reference probes."""
    return REFERENCE_NOMINAL_S / statistics.median(probes)


class Phase:
    """Op latencies, reference probes and failures of one run of whole passes."""

    def __init__(self):
        self.samples: list[float] = []  # wall-clock seconds of each op
        self.probes: list[float] = []
        self.probe_at: list[int] = []  # number of ops done when each probe ran
        self.failures: list[str] = []
        self.passes = 0
        self._since_probe = PROBE_EVERY_S

    def maybe_probe(self, force: bool = False) -> None:
        if force or self._since_probe >= PROBE_EVERY_S:
            self.probes.append(reference())
            self.probe_at.append(len(self.samples))
            self._since_probe = 0.0

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)
        self._since_probe += seconds

    @property
    def busy(self) -> float:
        return sum(self.samples)

    def scaled(self) -> list[float]:
        """Op times at nominal host speed.

        A shared host runs this code up to a quarter slower or faster for
        seconds at a time.  Each op time is multiplied by host_factor over the
        four probes before and the four after it, which cancels that drift.
        """
        out = []
        for i, seconds in enumerate(self.samples):
            j = bisect.bisect_right(self.probe_at, i)
            out.append(seconds * host_factor(self.probes[max(0, j - 4):j + 4]))
        return out


def run_pass(workload, phase: Phase, tracer=None) -> None:
    """Run pass number phase.passes of the workload, one op at a time."""
    import workloads

    ops = deque(workload.pass_ops(phase.passes))
    while ops:
        op = ops.popleft()
        phase.maybe_probe()
        error = None
        try:
            args = op.make()
            if tracer:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                out = op.run(*args)
            finally:
                phase.record(perf_counter() - t0)
                if tracer:
                    tracer.end_op()
            op.check(out)
            if op.then:
                ops.extendleft(reversed(op.then(out)))
        except workloads.Mismatch as exc:
            error = f"{op.kind} {op.label}: {exc}"
        except Exception:  # an op must not end the run; record it as failed
            error = f"{op.kind} {op.label}: raised\n{traceback.format_exc()}"
        if error:
            phase.failures.append(error)
    phase.passes += 1


def run_passes(workload, seconds: float) -> Phase:
    """Run whole passes until their op time reaches `seconds`."""
    phase = Phase()
    while phase.busy < seconds:
        run_pass(workload, phase)
    phase.maybe_probe(force=True)
    return phase


def percentile(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of the samples, and how many samples lie beyond it."""
    ordered = sorted(samples)
    k = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - k - 1


GUARD_COMMANDS = (("enumerate-8", ["enumerate", "--order", "8"]), ("verify-A", ["verify", "A"]))


def cli_digests(bf) -> dict[str, str]:
    """sha256 of the --out file of each guard command, or the reason it has none."""
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-guard-") as tmp:
        for key, argv in GUARD_COMMANDS:
            path = Path(tmp) / key
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = bf.cli.main(argv + ["--out", str(path)])
            digests[key] = (hashlib.sha256(path.read_bytes()).hexdigest() if code == 0
                            else f"exit {code}: {sink.getvalue().strip()}")
    return digests


def byte_guard(bf, pins: dict) -> list[str]:
    """Compare the guard commands' output digests with the pinned ones."""
    return [f"byte guard: {key} gave {got}, pinned sha256 {pins['bytes'][key]}"
            for key, got in cli_digests(bf).items() if got != pins["bytes"][key]]


SETUP_PROBES = 5  # reference probes on each side of a set-up


@contextlib.contextmanager
def probing(every: float):
    """Run reference() every `every` seconds of wall-clock time from a timer
    signal, in this thread, and collect the probe times in the yielded list."""
    probes: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: probes.append(reference()))
    signal.setitimer(signal.ITIMER_REAL, every, every)
    try:
        yield probes
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_setups(workload) -> list[tuple[float, float]]:
    """(scaled, wall-clock) seconds of each of the workload's set-ups; then
    make its inputs from the last one, untimed.

    A set-up is one long call, so the host speed it ran at is probed during
    it, every PROBE_EVERY_S, and the probes' own time is taken out of it.
    """
    out = []
    for _ in range(workload.setup_reps):
        gc.collect()
        probes = [reference() for _ in range(SETUP_PROBES)]
        with probing(PROBE_EVERY_S) as during:
            t0 = perf_counter()
            built = workload.setup()
            seconds = perf_counter() - t0
        seconds -= sum(during)
        probes += during + [reference() for _ in range(SETUP_PROBES)]
        out.append((seconds * host_factor(probes), seconds))
    workload.make_inputs(built)
    return out


def measure(workload, seconds: float) -> tuple[dict, Phase, list[str]]:
    setups = timed_setups(workload)
    gc.collect()
    phase = run_passes(workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = phase.scaled()
    n = len(scaled)
    tail_s, beyond = percentile(scaled, workload.tail_percentile)
    metrics = {
        "throughput_ops_s": (n / sum(scaled), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    raw_tail, _ = percentile(phase.samples, workload.tail_percentile)
    notes = [f"{n} ops in {phase.passes} passes, {phase.busy:.2f} s of op time, "
             f"{len(phase.probes)} reference probes, median {1000 * statistics.median(phase.probes):.4f} ms "
             f"(nominal {1000 * REFERENCE_NOMINAL_S} ms)",
             f"op_tail_ms is p{workload.tail_percentile}: {beyond} of {n} samples beyond it",
             f"setup_s is the median of {len(setups)} set-ups",
             f"wall clock: throughput {n / phase.busy:.6g} ops/s, "
             f"p50 {1000 * statistics.median(phase.samples):.6g} ms, tail {1000 * raw_tail:.6g} ms, "
             f"setup {statistics.median(w for _, w in setups):.6g} s",
             f"fail_frac {len(phase.failures) / max(n, 1):.4f} ({len(phase.failures)} of {n})"]
    return metrics, phase, notes


def measure_traced(workload, seconds: float, seed: int) -> tuple[dict, Phase, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    tracer.active = True
    try:
        built = workload.setup()
    finally:
        tracer.active = False
        tracing.uninstall(saved)
    workload.make_inputs(built)
    k = tracing.INDEX["catalog.groups_of_order"]
    setup_self, setup_calls = tracer.self_s[k], tracer.calls[k]
    tracer.reset()

    # alternate untraced and traced runs of each pass, so host drift hits both alike
    gc.collect()
    plain, traced = Phase(), Phase()
    while plain.busy < seconds / 3:
        run_pass(workload, plain)
        saved = tracing.install(tracer)
        try:
            run_pass(workload, traced, tracer)
        finally:
            tracing.uninstall(saved)
    plain.maybe_probe(force=True)
    traced.maybe_probe(force=True)
    traced_scaled = sum(traced.scaled())
    factor = traced_scaled / traced.busy  # host speed-up over the traced phase
    values = tracer.metrics(plain.passes)
    for name in tracing.TRACED:
        values[f"{name}.self_s"] *= factor
    values["catalog.groups_of_order.self_s"] = setup_self
    values["catalog.groups_of_order.calls"] = setup_calls
    values["trace.overhead_frac"] = traced_scaled / sum(plain.scaled()) - 1
    units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
    metrics = {name: (values[name], units[name]) for name in units}

    path = HERE / "traces" / f"{workload.name}-seed{seed}.tsv.gz"
    stored = tracer.write(path)
    phase = Phase()
    phase.samples = plain.samples + traced.samples
    phase.failures = plain.failures + traced.failures
    root = tracer.self_s[tracing.INDEX[tracing.ROOT]] * factor / plain.passes
    notes = [f"{plain.passes} passes, each run untraced ({plain.busy:.2f} s in all) "
             f"then traced ({traced.busy:.2f} s), wall clock",
             "self_s are per pass, scaled to nominal host speed like the end-to-end times",
             f"per pass: {root:.4f} s of op time outside traced functions",
             "catalog.groups_of_order.* cover one traced set-up, unscaled; the rest are per pass",
             f"{stored} spans written to {path.relative_to(ROOT)}"
             + (f", {tracer.dropped} more not stored" if tracer.dropped else "")]
    return metrics, phase, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bf = load_library(ROOT)
    except (LibraryMissing, ImportError) as exc:
        print(f"error: cannot load braceforge: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](bf, pins, args.seed)

    if args.trace:
        metrics, phase, notes = measure_traced(workload, args.seconds, args.seed)
    else:
        metrics, phase, notes = measure(workload, args.seconds)
    problems = (workloads.census_table_problems(pins["census"]["classes"]) + workload.problems
                + workload.audit() + byte_guard(bf, pins))

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for failure in phase.failures[:5] + problems:
        print("FAILED: " + failure, file=sys.stderr)
    if len(phase.failures) > 5:
        print(f"FAILED: {len(phase.failures) - 5} more ops", file=sys.stderr)
    correct = not phase.failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(phase.samples),
        "failed": len(phase.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
