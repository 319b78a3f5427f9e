"""Which mixed_queries families sit next to p50 and p90, and their share of pass time.

Run from the repository root: ``python3 bench/mix_ranks.py [seeds] [passes]``,
for example ``python3 bench/mix_ranks.py 1,2,3 8``.  It backs the family
table in README.md: a layer can move a percentile only if its queries are
ranked next to it.
"""

import gc
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

WINDOWS = {"p50": (0.45, 0.55), "p90": (0.85, 0.95)}


def family(q) -> str:
    return q.alphabet.split(":")[0]


def main() -> None:
    seeds = [int(s) for s in (sys.argv[1] if len(sys.argv) > 1 else "1,2,3").split(",")]
    passes = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    shares: dict[str, dict[str, float]] = {}
    for seed in seeds:
        wl = workloads.build("mixed_queries", seed)
        outcomes, times = [], []
        for _ in range(passes):
            gc.collect()
            o, t = run.run_pass(wl)
            outcomes.append(o)
            times.append(t)
        latency = run.query_latencies(outcomes, times)
        order = sorted(range(len(latency)), key=latency.__getitem__)
        last = len(order) - 1
        for name, (lo, hi) in WINDOWS.items():
            window = order[int(lo * last) : int(hi * last) + 1]
            for i in window:
                row = shares.setdefault(name, {})
                row[family(wl.queries[i])] = row.get(family(wl.queries[i]), 0) + 1 / len(window) / len(seeds)
        for i, t in enumerate(latency):
            row = shares.setdefault("pass time", {})
            row[family(wl.queries[i])] = row.get(family(wl.queries[i]), 0) + t / sum(latency) / len(seeds)
    for name, row in shares.items():
        print(name, {f: round(x, 2) for f, x in sorted(row.items())})


if __name__ == "__main__":
    main()
