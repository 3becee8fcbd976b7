"""Compare results saved with ``run.py --out``.

Usage, from the repository root::

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Prints each metric's median on both sides and the change, and, for the
end-to-end metrics, whether the change stays within the bound in
``BENCHMARK.json``. It refuses (exit code 2) to compare runs of
different workloads or trace modes, or runs that measured different
fused backends: a native-vs-numpy difference is not a code change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import median

#: Run metadata that must be equal on both sides.
MUST_MATCH = ("fused_backend", "REPRO_FORCE_NUMPY")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def refusal(base: list[dict], new: list[dict]) -> str | None:
    """Why the two sides cannot be compared, or ``None``."""
    runs = base + new
    for key in ("workload", "trace"):
        if len({r[key] for r in runs}) > 1:
            return f"runs differ in {key}: {sorted({str(r[key]) for r in runs})}"
    for key in MUST_MATCH:
        seen = {str(r["meta"].get(key)) for r in runs}
        if len(seen) > 1:
            return f"runs differ in {key}: {sorted(seen)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reason = refusal(base, new)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for name in base[0]["result"]["metrics"]:
        a = median([r["result"]["metrics"][name]["value"] for r in base])
        b = median([r["result"]["metrics"][name]["value"] for r in new])
        change = (b - a) / a if a else 0.0
        metric = declared.get(name, {})
        verdict = ""
        if "bound" in metric:
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE than bound"
        unit = base[0]["result"]["metrics"][name]["unit"]
        print(f"{name:34s} {a:14.6g} -> {b:14.6g} {unit:6s} {change:+8.2%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
