#!/usr/bin/env python3
"""Determinism check of the traced per-layer counts.

    python3 bench/determinism.py --workload boundary --seed 1 --other-seed 2

Makes two traced runs at ``--seed`` and one at ``--other-seed``.  Passes when
the two runs at one seed report identical counts (every per-layer metric
whose unit is ``count`` or ``code``, plus ``attempted`` and ``failed``) and
identical inputs, and the other seed's inputs differ.  Exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

COUNT_UNITS = ("count", "code")


def traced(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    digest = next(line.split()[-1] for line in out if line.startswith("inputs sha256"))
    result = json.loads(out[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}
    counts["attempted"] = result["attempted"]
    counts["failed"] = result["failed"]
    return digest, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--other-seed", type=int, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    digest_a, counts_a = traced(command, args.workload, args.seed, seconds)
    digest_b, counts_b = traced(command, args.workload, args.seed, seconds)
    digest_c, _ = traced(command, args.workload, args.other_seed, seconds)

    ok = True
    for name in sorted(counts_a):
        if counts_a[name] != counts_b.get(name):
            print(f"DIFFERS {name}: {counts_a[name]} vs {counts_b.get(name)}")
            ok = False
    print(f"{len(counts_a)} counts compared; identical: {ok}")
    if digest_a != digest_b:
        print("inputs differ between two runs at one seed")
        ok = False
    if digest_a == digest_c:
        print(f"seed {args.other_seed} produced the same inputs as seed {args.seed}")
        ok = False
    print(f"inputs: seed {args.seed} {digest_a}, seed {args.other_seed} {digest_c}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
