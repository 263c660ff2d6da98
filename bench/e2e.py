#!/usr/bin/env python3
"""End-to-end cost of regenerating the evaluation at paper scale.

Runs every figure binary once at paper scale (no --quick), serially, and
records its wall time under one label ("before" / "after") in a JSON
ledger, keeping rows recorded under other labels. Typical use, comparing
two builds on the same host:

    python3 bench/e2e.py --bin-dir OLD/target/release --label before
    python3 bench/e2e.py --bin-dir target/release --label after

Binaries run without --stats-json, so the wall time covers the figure's
own sweep and not the extra canonical run that flag adds. Simulated
cycles are not recorded: most binaries' stats documents count only that
canonical point, not the sweep they print.

Each binary's stdout lands in its own directory under --keep, so two
labels' outputs can be compared with `cmp`.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BINS = [
    "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "ablate", "extensions",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default="BENCH_e2e.json")
    ap.add_argument("--keep", default=".e2e")
    a = ap.parse_args()

    doc = {}
    if os.path.exists(a.out):
        with open(a.out) as f:
            doc = json.load(f)
    doc["bench"] = "e2e"
    doc["scale"] = "paper"
    doc["host_cores"] = os.cpu_count()
    rows = {r["bin"]: r for r in doc.get("rows", [])}

    for b in BINS:
        exe = os.path.abspath(os.path.join(a.bin_dir, b))
        work = os.path.join(a.keep, a.label, b)
        os.makedirs(work, exist_ok=True)
        t0 = time.perf_counter()
        with open(os.path.join(work, "stdout.txt"), "wb") as out:
            rc = subprocess.run([exe], cwd=work, stdout=out).returncode
        wall = time.perf_counter() - t0
        if rc != 0:
            sys.exit(f"{b} exited {rc}")
        entry = {"wall_ms": round(wall * 1e3, 1)}
        rows.setdefault(b, {"bin": b})[a.label] = entry
        print(f"{b:>10} {a.label}: {entry}", flush=True)

    doc["rows"] = [rows[b] for b in BINS if b in rows]
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
