#!/usr/bin/env python3
"""Counted-metric repeat check for two hmbench runs of one workload.

Usage::

    scripts/counts_repeat.py <workload> <run1.txt> <run2.txt>

Each file holds the stdout of one ``hmbench --workload <workload>`` run;
its last line is the JSON report. The counted metrics say what one op
moves and allocates, so two runs at the same seed and scale must agree:

* ``wire_bytes_per_op`` must be identical on every workload;
* ``allocs_per_op`` and ``alloc_bytes_per_op`` must be identical on the
  single-home workloads;
* on ``fleet_day``, whose homes run on two worker threads,
  ``allocs_per_op`` may differ by at most ``FLEET_ALLOCS_BAND``
  (relative). Its runs have shown a residual of about 7e-5 between two
  workers that has no known source; a drift of the size a shared,
  thread-timed cache once caused (about 1%) is far outside the band.
  Its ``alloc_bytes_per_op`` is not compared.

Prints one line per compared metric. Exit status: 0 when every metric
repeats, 1 otherwise (or when a report is missing or malformed).
"""

import json
import sys

FLEET_ALLOCS_BAND = 0.001

SINGLE_HOME = ("wire_bytes_per_op", "allocs_per_op", "alloc_bytes_per_op")


def report(path):
    """The metrics of the JSON report on the last non-empty line."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no report")
    doc = json.loads(lines[-1])
    return {name: m["value"] for name, m in doc["metrics"].items()}


def bands(workload):
    """(metric, relative band) pairs to compare for `workload`."""
    if workload == "fleet_day":
        return [("wire_bytes_per_op", 0.0), ("allocs_per_op", FLEET_ALLOCS_BAND)]
    return [(name, 0.0) for name in SINGLE_HOME]


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: counts_repeat.py <workload> <run1.txt> <run2.txt>", file=sys.stderr)
        return 2
    workload, first, second = argv[1:]
    try:
        a, b = report(first), report(second)
    except (OSError, ValueError, KeyError) as e:
        print(f"counts_repeat: {e}", file=sys.stderr)
        return 1
    ok = True
    for name, band in bands(workload):
        x, y = a.get(name), b.get(name)
        if x is None or y is None:
            print(f"{workload} {name}: missing from a report")
            ok = False
            continue
        drift = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
        held = drift <= band
        ok &= held
        verdict = "ok" if held else "DIFFERS"
        print(f"{workload} {name}: {x!r} vs {y!r} (drift {drift:.2e}, band {band:g}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
