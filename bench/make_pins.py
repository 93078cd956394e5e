#!/usr/bin/env python3
"""Derive bench/pins.json from the library as it stands.

    python3 bench/make_pins.py

Pins are label-invariant counts on the census (classes and raw regular
subgroups per catalog group, and per soluble brace its chief factors as
sorted [kind, order, prime], maximal subbrace indices, derived length, coset
decompositions, ideal pairs, central pairs, r-closed subsets and those
meeting the last derived term), the validator calls and rejections of one
ingest pass, and sha256 digests of `braceforge enumerate --order 8` and
`braceforge verify A`.  The brace and ingest pins must come out the same on
CHECK_SEEDS seeded relabellings, and census class sums must equal the
published table, before anything is written.  Regenerate only when a change
is meant to alter one of these counts, and say which in the change.
"""

from __future__ import annotations

import json
import sys

import gen
import run
import workloads

CHECK_SEEDS = 3  # relabelling seeds each label-invariant pin is checked on


def census_pins(bf) -> dict:
    catalog, _ = workloads.build_catalog(bf)
    classes, raw = {}, {}
    for n in workloads.ORDERS:
        groups = catalog[n]
        classes[str(n)] = [len(bf.construct.enumerate_braces(n, extra_groups=[e.group]))
                           for e in groups]
        raw[str(n)] = sum(len(bf.groups.regular_subgroups(e.group)) for e in groups)
    problems = workloads.census_table_problems(classes)
    if problems:
        raise SystemExit(problems[0])
    return {"classes": classes, "raw_regular_subgroups": raw}


def brace_pins(bf, census, seed: int | None) -> dict:
    """Pins of every census brace, relabelled by the seed (census labels when None)."""
    structure = workloads.Structure(bf, {}, 0)
    out = {}
    for n in workloads.ORDERS:
        out[str(n)] = []
        r = gen.rng(seed, "pins", n)
        for add, mul in census[n]:
            if seed is not None:
                add, mul = workloads.relabel_brace(add, mul, gen.perm_fixing_zero(r, n))
            B = bf.braces.validate_brace(add, mul)
            if not bf.structure.is_soluble(B):
                out[str(n)].append(None)
                continue
            report = bf.structure.verify_soluble_chief_factors(B)
            uniform, levels, cosets, blocks_ok = structure._series(B)
            assert uniform and blocks_ok
            pairs, central = structure._central(B)
            pin = {"max_index": sorted(i for _, i in report.maximal_subbrace_indices),
                   "chief": workloads.chief_kinds(report),
                   "dl": levels, "cosets": cosets, "pairs": pairs, "central": central}
            if n <= workloads.EMBEDDED_MAX_ORDER:
                series = bf.structure.derived_series(B)
                subsets = bf.ybe.r_closed_subsets(bf.ybe.solution_from_brace(B))
                pin["r_closed"] = len(subsets)
                pin["meeting"] = len(workloads.meeting_last_term(B, series, subsets))
            out[str(n)].append(pin)
    return out


def ingest_pins(bf) -> dict:
    counts = []
    for seed in range(CHECK_SEEDS):
        w = workloads.Ingest(bf, {}, seed)
        w.make_inputs(w.setup())
        counts.append(w.validation_counts())
    if any(c != counts[0] for c in counts):
        raise SystemExit(f"ingest counts depend on the seed: {counts}")
    return counts[0]


def main() -> int:
    bf = run.load_library(run.ROOT)
    census = workloads.build_census(bf)
    braces = brace_pins(bf, census, None)
    for seed in range(CHECK_SEEDS):
        if brace_pins(bf, census, seed) != braces:
            raise SystemExit(f"brace pins change under the relabelling of seed {seed}")
    pins = {"census": census_pins(bf), "braces": braces,
            "ingest": ingest_pins(bf), "bytes": run.cli_digests(bf)}
    if any(len(d) != 64 for d in pins["bytes"].values()):
        raise SystemExit(f"a guard command failed: {pins['bytes']}")
    text = json.dumps(pins, sort_keys=True, separators=(",", ":"))
    (run.HERE / "pins.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {run.HERE / 'pins.json'} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
