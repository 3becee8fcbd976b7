"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 [--workloads figure-sweep,serve-daemon]

For every workload and end-to-end metric it prints the median and the
spread, the distance between the first and third quartile over the
median, next to the metric's bound from ``BENCHMARK.json``. A spread
under a third of the bound is marked ``steady``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread


def run_once(bench: dict, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None, help="write every value as JSON here")
    args = parser.parse_args(argv)

    values: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(bench, workload, args.first_seed + i) for i in range(args.runs)]
        values[workload] = runs
        for metric in bench["end_to_end"]:
            series = [r[metric["name"]] for r in runs]
            spread = quartile_spread(series) if len(series) > 1 else 0.0
            ok = spread < metric["bound"] / 3
            steady &= ok or metric["name"] == "setup_s"
            print(
                f"{workload:14s} {metric['name']:12s} median {median(series):12.5g} "
                f"spread {spread:7.4f} bound {metric['bound']:.2f} "
                f"{'steady' if ok else 'WIDE'}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
