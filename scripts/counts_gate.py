#!/usr/bin/env python3
"""Counted-metric gate for hmbench smoke runs.

Usage::

    scripts/counts_gate.py <run.txt>...          compare with the baseline
    scripts/counts_gate.py --emit <run.txt>...   write the baseline

Each file holds the stdout of one ``hmbench --scale smoke`` run: its
``provenance`` line names the workload, seed and scale, and its last
line is the JSON report. The counted metrics (``wire_bytes_per_op``,
``allocs_per_op`` and ``alloc_bytes_per_op``) say what one op moves and
allocates; they do not depend on the host, so a run can be held to a
checked-in value. Each is compared with
``bench-baselines/HMBENCH_smoke_counts.json`` and fails when it moved,
in either direction, by more than that metric's relative ``bound`` in
``BENCHMARK.json`` (read, never written): a count that silently fell is
as suspicious as one that rose, and a deliberate change re-emits the
baseline.

Every run must match the baseline's seed and scale, every baseline
workload needs a run, and every run needs a baseline.

``--emit`` writes the baseline from the given runs instead.

Exit status: 0 green (or emitted), 1 drift or a missing or mismatched
run, 2 usage.
"""

import json
import sys
from pathlib import Path

from counts_repeat import held, report, run_lines

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench-baselines" / "HMBENCH_smoke_counts.json"
BENCHMARK = ROOT / "BENCHMARK.json"
COUNTED = ("wire_bytes_per_op", "allocs_per_op", "alloc_bytes_per_op")


def run(path):
    """(provenance, metrics) of one hmbench run's stdout."""
    lines = run_lines(path)
    provenance = next(
        (json.loads(line[len("provenance ") :]) for line in lines if line.startswith("provenance ")),
        None,
    )
    if provenance is None:
        raise ValueError(f"{path}: no provenance line")
    return provenance, report(lines)


def bounds():
    """Each counted metric's relative bound, as BENCHMARK.json gives it."""
    with open(BENCHMARK, encoding="utf-8") as f:
        declared = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    return {name: declared[name] for name in COUNTED}


def emit(runs):
    first = runs[0][0]
    doc = {
        "seed": first["seed"],
        "scale": first["scale"],
        "workloads": {
            prov["workload"]: {name: metrics[name] for name in COUNTED} for prov, metrics in runs
        },
    }
    with open(BASELINE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"counts_gate: wrote {BASELINE.relative_to(ROOT)} ({len(runs)} workloads)")
    return 0


def gate(runs):
    with open(BASELINE, encoding="utf-8") as f:
        base = json.load(f)
    band = bounds()
    ok = True
    seen = set()
    for prov, metrics in runs:
        workload = prov["workload"]
        seen.add(workload)
        if (prov["seed"], prov["scale"]) != (base["seed"], base["scale"]):
            print(
                f"{workload}: run at seed {prov['seed']} scale {prov['scale']}, "
                f"baseline at seed {base['seed']} scale {base['scale']}"
            )
            ok = False
            continue
        want = base["workloads"].get(workload)
        if want is None:
            print(f"{workload}: no baseline")
            ok = False
            continue
        for name in COUNTED:
            old, new = want[name], metrics.get(name)
            if new is None:
                print(f"{workload} {name}: missing from the run")
                ok = False
                continue
            ok &= held(f"{workload} {name}", old, new, abs(old) or 1, band[name], "MOVED")
    for workload in sorted(set(base["workloads"]) - seen):
        print(f"{workload}: baseline with no run")
        ok = False
    return 0 if ok else 1


def main(argv):
    args = argv[1:]
    emitting = bool(args) and args[0] == "--emit"
    if emitting:
        args = args[1:]
    if not args:
        print("usage: counts_gate.py [--emit] <run.txt>...", file=sys.stderr)
        return 2
    try:
        runs = [run(path) for path in args]
        return emit(runs) if emitting else gate(runs)
    except (OSError, ValueError, KeyError) as e:
        print(f"counts_gate: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
