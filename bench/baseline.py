#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/baseline.py

Runs `bench/run.py --trace 0` once for each of SEEDS on every workload in
BENCHMARK.json, for its run_seconds, one process at a time, and prints each
metric's median, quartiles (statistics.quantiles, n=4) and spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  When bench/baseline.json holds a set already, it also
prints how far each median moved from the first set's, in the direction
the metric calls worse.  The set is then appended to bench/baseline.json.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    recorded = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else None
    if recorded and recorded["run_seconds"] != seconds:
        raise SystemExit(f"{BASELINE.name} was recorded at {recorded['run_seconds']} s a run, "
                         f"BENCHMARK.json says {seconds}")
    first = recorded["sets"][0]["workloads"] if recorded else {}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in metrics}
        units = {}
        for seed in SEEDS:
            result = run_once(workload, seed, seconds)["metrics"]
            for name in metrics:
                values[name].append(result[name]["value"])
                units[name] = result[name]["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {result[n]['value']:.4g}" for n in metrics), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
                                       "unit": units[name]}
            line = (f"  {workload} {name}: median {med:.4g} {units[name]}, quartiles "
                    f"{q1:.4g}..{q3:.4g}, spread {(q3 - q1) / med:.3f} "
                    f"(bound {metrics[name]['bound']})")
            if name in first.get(workload, {}):
                before = first[workload][name]["median"]
                worse = (med / before - 1) * (1 if metrics[name]["better"] == "lower" else -1)
                line += f", {worse:+.3f} worse than the first set"
            print(line, flush=True)
    out = recorded or {"run_seconds": seconds, "python": platform.python_version(),
                       "machine": platform.machine(), "sets": []}
    out["sets"].append({"seeds": list(SEEDS), "workloads": summary})
    BASELINE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
