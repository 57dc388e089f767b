"""Summarize benchmark records, or compare two sets of them.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result records written by run.py (by default
under .perfbench/results/).  For every workload and metric the summary
gives the run count, the median, and the highest percentile that still
has at least ten runs beyond it.  With NEW_DIR it also gives the change
of the median against BASE_DIR and flags a change worse than the bound
set in BENCHMARK.json.  Records made on different kernel backends are
never compared: the script refuses and exits with code 2.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str):
    """(backends, {(workload, metric): [values]}) of every record in a directory."""
    backends = set()
    values = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        backends.add(record["env"]["backend"])
        for name, value in record["metrics"].items():
            values[(record["workload"], name)].append(value)
    return backends, values


def tail_percentile(values):
    """(p, value): the highest percentile with at least ten runs beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))  # nearest-rank definition
    return p, ordered[rank - 1]


def describe(values) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "p- (needs >10 runs)"
    return f"n={len(values):<3d} median {statistics.median(values):<12.6g} {tail_text}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    sets = [load(a) for a in args]
    backends = set().union(*(b for b, _ in sets))
    if len(backends) > 1:
        sys.stderr.write(f"refusing to compare records from different kernel backends: {sorted(backends)}\n")
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = sets[0][1]
    for key in sorted(base):
        workload, name = key
        line = f"{workload:8s} {name:40s} {describe(base[key])}"
        if len(sets) == 2 and key in sets[1][1]:
            new = sets[1][1][key]
            old_median, new_median = statistics.median(base[key]), statistics.median(new)
            change = (new_median - old_median) / old_median if old_median else 0.0
            line += f" -> {describe(new)} change {change:+.2%}"
            info = metrics.get(name, {})
            worse = change if info.get("better") == "lower" else -change
            if "bound" in info and worse > info["bound"]:
                line += f"  WORSE than bound {info['bound']:.0%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
