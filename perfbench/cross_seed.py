#!/usr/bin/env python3
"""Cross-seed report: run one workload on two seeds and print, for every
end-to-end metric, both values and their spread.

    python3 perfbench/cross_seed.py --workload edgeword-long --seeds 1 2

Each run lasts BENCHMARK.json's ``run_seconds``, so the spread printed is
that of the gated configuration.

A speed claim measured on one seed can be re-checked on a fresh one: the
spread printed here is what a seed change alone moves each metric by.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Spread of each metric across two seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = parser.parse_args(argv)

    a, b = (run(args.workload, seed) for seed in args.seeds)
    print(f"{'metric':<14} {'seed ' + str(args.seeds[0]):>14} {'seed ' + str(args.seeds[1]):>14} {'spread':>8}")
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        spread = abs(va - vb) / ((va + vb) / 2) if va + vb else 0.0
        print(f"{name:<14} {va:>14.6g} {vb:>14.6g} {spread:>8.1%}  {ma['unit']}")
    ok = a["correct"] and b["correct"]
    print(f"correct: {ok}, failed {a['failed']}/{a['attempted']} and {b['failed']}/{b['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
