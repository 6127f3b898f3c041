#!/usr/bin/env python3
"""Bench regression gate.

Compares freshly emitted ``BENCH_*.json`` reports (written by the bench
smoke runs into ``crates/bench/target/bench-results/``) against the
checked-in baselines in ``bench-baselines/`` and fails on drift beyond a
tolerance band.

Report shape (see ``crates/bench/src/lib.rs``)::

    {"id": ..., "title": ..., "headers": [...], "rows": [[cell, ...], ...]}

Cells are strings; numeric cells may carry a unit suffix ("7663us",
"99.2"). A cell that parses as a leading float in the baseline must
parse in the fresh run too and stay within ``BENCH_TOLERANCE`` (relative,
default 0.25) — the band is symmetric because a metric that silently
doubled is as suspicious as one that halved. Label cells must match
exactly; any header/row-count mismatch is a shape change and fails hard.

Baselines and fresh reports must pair up one to one: every checked-in
baseline needs a fresh run (ci.sh smokes every bench that emits one),
and every *fresh* ``BENCH_*.json`` needs a baseline. Either orphan
would otherwise sit silently ungated.

On drift the gate prints a per-cell table (file, row, column, old, new,
drift, tolerance) so the offending cells read off directly.

Exit status: 0 green, 1 regression/shape change/missing baseline/
missing fresh run.
"""

import json
import os
import re
import sys
from pathlib import Path

LEADING_FLOAT = re.compile(r"^\s*([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
# Cells at or below this magnitude are compared absolutely: a lag of
# 0 entries vs 1 entry is meaningful, but a relative band around 0 is
# degenerate.
ABSOLUTE_FLOOR = 1.0


def leading_float(cell):
    m = LEADING_FLOAT.match(cell)
    return float(m.group(1)) if m else None


def compare_report(name, base, fresh, tolerance):
    """Returns (failures, drift_cells).

    ``failures`` are shape-change strings; ``drift_cells`` are
    ``(file, row_label, column, old, new, drift, band)`` tuples for
    every numeric cell outside its band (empty both means green).
    """
    failures, drifts = [], []
    if base.get("headers") != fresh.get("headers"):
        return (
            [f"{name}: headers changed {base.get('headers')} -> {fresh.get('headers')}"],
            [],
        )
    headers = base.get("headers", [])
    base_rows, fresh_rows = base.get("rows", []), fresh.get("rows", [])
    if len(base_rows) != len(fresh_rows):
        return [f"{name}: row count changed {len(base_rows)} -> {len(fresh_rows)}"], []
    for i, (brow, frow) in enumerate(zip(base_rows, fresh_rows)):
        if len(brow) != len(frow):
            failures.append(f"{name} row {i}: cell count changed {len(brow)} -> {len(frow)}")
            continue
        row_label = brow[0] if brow else str(i)
        for j, (bcell, fcell) in enumerate(zip(brow, frow)):
            column = headers[j] if j < len(headers) else f"col {j}"
            bval, fval = leading_float(bcell), leading_float(fcell)
            if bval is None or fval is None:
                if bcell != fcell:
                    failures.append(
                        f"{name} row {i} col {j}: label changed {bcell!r} -> {fcell!r}"
                    )
                continue
            if abs(bval) <= ABSOLUTE_FLOOR:
                drift_ok = abs(fval - bval) <= ABSOLUTE_FLOOR
                band = f"±{ABSOLUTE_FLOOR:g} abs"
                drift = f"{fval - bval:+g}"
            else:
                rel = (fval - bval) / abs(bval)
                drift_ok = abs(rel) <= tolerance
                band = f"±{tolerance:.0%}"
                drift = f"{rel:+.1%}"
            if not drift_ok:
                drifts.append((name, row_label, column, bcell, fcell, drift, band))
    return failures, drifts


def print_drift_table(drifts):
    """The per-cell drift report: one aligned row per offending cell."""
    headers = ("file", "row", "column", "old", "new", "drift", "tolerance")
    rows = [headers] + [tuple(str(c) for c in d) for d in drifts]
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    for k, r in enumerate(rows):
        line = "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
        print(f"bench gate: {line}", file=sys.stderr)
        if k == 0:
            print(f"bench gate: {'-' * (sum(widths) + 2 * (len(widths) - 1))}", file=sys.stderr)


def main():
    root = Path(__file__).resolve().parent.parent
    baseline_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "bench-baselines"
    fresh_dir = (
        Path(sys.argv[2])
        if len(sys.argv) > 2
        else root / "crates" / "bench" / "target" / "bench-results"
    )
    tolerance = float(os.environ.get("BENCH_TOLERANCE", "0.25"))

    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench gate: no BENCH_*.json baselines in {baseline_dir}", file=sys.stderr)
        return 1

    compared, failures, drifts = 0, [], []
    for base_path in baselines:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            # A baseline nothing re-runs is a gate that never fires.
            print(f"bench gate: {base_path.name}: FAIL (no fresh run)", file=sys.stderr)
            failures.append(
                f"{base_path.name}: baseline has no fresh report in {fresh_dir} — "
                f"smoke its bench in ci.sh or delete the baseline"
            )
            continue
        with open(base_path) as f:
            base = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        file_failures, file_drifts = compare_report(base_path.name, base, fresh, tolerance)
        failures.extend(file_failures)
        drifts.extend(file_drifts)
        compared += 1
        status = "FAIL" if file_failures or file_drifts else "ok"
        print(f"bench gate: {base_path.name}: {status}")

    # A fresh report with no baseline is a new, ungated bench — fail
    # loudly instead of letting it ride green forever.
    baseline_names = {p.name for p in baselines}
    unbaselined = sorted(
        p.name for p in fresh_dir.glob("BENCH_*.json") if p.name not in baseline_names
    )
    for name in unbaselined:
        print(f"bench gate: {name}: FAIL (no baseline)", file=sys.stderr)
        failures.append(
            f"{name}: emitted fresh but has no baseline — "
            f"check one in under {baseline_dir}"
        )

    for failure in failures:
        print(f"bench gate: REGRESSION: {failure}", file=sys.stderr)
    if drifts:
        print("bench gate: cells outside the band:", file=sys.stderr)
        print_drift_table(drifts)

    if failures or drifts:
        return 1
    print(f"bench gate: green ({compared} compared, tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
