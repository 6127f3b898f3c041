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


def run_lines(path):
    """The non-empty lines of one run's stdout; the last is its report."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no report")
    return lines


def report(lines):
    """The metrics of the JSON report on the last of a run's lines."""
    doc = json.loads(lines[-1])
    return {name: m["value"] for name, m in doc["metrics"].items()}


def held(label, old, new, scale, band, verdict):
    """Prints how far `new` drifted from `old`, relative to `scale`, and
    returns whether the drift stayed within `band`; `verdict` names a
    drift that did not."""
    drift = abs(new - old) / scale if new != old else 0.0
    ok = drift <= band
    print(f"{label}: {old!r} -> {new!r} (drift {drift:.2e}, band {band:g}) {'ok' if ok else verdict}")
    return ok


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
        a, b = report(run_lines(first)), report(run_lines(second))
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
        ok &= held(f"{workload} {name}", x, y, max(abs(x), abs(y)), band, "DIFFERS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
