"""Record a benchmark run as ``BENCH_<n>.json`` and compare it with the last one.

Usage: python tools/bench_record.py N [--seed S] [--seconds T] [--checkout DIR] [--dir DIR]

Runs ``python3 bench/run.py --workload all --seed S --seconds T`` in the
checkout ``DIR`` (default: this repository) twice, with ``--trace 0`` and
then ``--trace 1``, and parses every ``<workload> <name> = <value> <unit>``
line each prints.  Writes ``BENCH_<N>.json`` into ``--dir`` (default: the
repository root) with the seed, the seconds, the checkout's commit
(``+dirty`` when tracked files differ from it), whether
``PYTHONDONTWRITEBYTECODE`` was set, the end-to-end metrics of the plain run
under ``metrics`` and the per-layer metrics of the traced run under
``per_layer``.  Then it prints each metric's ratio, new over old, against
the newest ``BENCH_<m>.json`` with ``m < N`` in the same directory, the
per-layer ones after a ``per layer:`` line.  A metric that only one of the
two files has is listed without a ratio.  The per-layer times (units ``s``
and ``us``) are wall-clock times of the traced run, not scaled to the
reference speed as the end-to-end times are, so their ratios also carry
the host's speed; their lines say so.  With the variable set, every
fresh process compiles ``src/symre`` from source, so ``setup_s`` and
``cli_p50_ms`` of two records compare only if both agree on it; a warning
says when they do not.  Exits with the worse status of the two runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)$")
_NAME = re.compile(r"^BENCH_(\d+)\.json$")
# The units of the per-layer metrics that are unscaled wall-clock times.
_UNSCALED_UNITS = ("s", "us")


def parse_metrics(output: str) -> dict[str, dict[str, dict]]:
    """``{workload: {metric: {"value", "unit"}}}`` from the run's output lines."""
    metrics: dict[str, dict[str, dict]] = {}
    for line in output.splitlines():
        m = _LINE.match(line.strip())
        if m:
            workload, name, value, unit = m.groups()
            metrics.setdefault(workload, {})[name] = {"value": float(value), "unit": unit}
    return metrics


def previous_record(directory: Path, number: int) -> Path | None:
    """The ``BENCH_<m>.json`` in ``directory`` with the largest ``m < number``."""
    found = [
        (int(m.group(1)), p)
        for p in directory.iterdir()
        if (m := _NAME.match(p.name)) and int(m.group(1)) < number
    ]
    return max(found)[1] if found else None


def diff_lines(old: dict, new: dict, key: str = "metrics") -> list[str]:
    """One line per metric under ``key`` of either record: the new value and
    its ratio to the old.  A record without ``key`` has no such metrics.
    The ratio of a per-layer time is marked as unscaled wall-clock."""
    lines = []
    old_m, new_m = old.get(key, {}), new.get(key, {})
    for workload in sorted(set(old_m) | set(new_m)):
        before, after = old_m.get(workload, {}), new_m.get(workload, {})
        for name in sorted(set(before) | set(after)):
            if name not in after:
                lines.append(f"{workload} {name}: only in the old record")
                continue
            value, unit = after[name]["value"], after[name]["unit"]
            base = before.get(name, {}).get("value")
            if base is None:
                ratio = "new"
            elif base == 0:
                ratio = "=" if value == 0 else "old 0"
            else:
                ratio = f"x{value / base:.3f}"
                if key == "per_layer" and unit in _UNSCALED_UNITS:
                    ratio += " (unscaled wall-clock)"
            lines.append(f"{workload} {name} = {value:.6g} {unit}  {ratio}")
    return lines


def bytecode_warning(old: dict, new: dict) -> str | None:
    """A warning when the two records differ in ``dont_write_bytecode``."""
    said = {True: "set", False: "unset", None: "not recorded"}
    before, after = old.get("dont_write_bytecode"), new.get("dont_write_bytecode")
    if before == after:
        return None
    return (
        f"warning: PYTHONDONTWRITEBYTECODE was {said[before]} in the old record and "
        f"{said[after]} in the new one; setup_s and cli_p50_ms do not compare"
    )


def commit_of(checkout: Path) -> str:
    """The checkout's HEAD commit, with ``+dirty`` when tracked files differ from it."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    status = subprocess.run(
        git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
    )
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    runs = []
    for trace in ("0", "1"):
        cmd = ["python3", "bench/run.py", "--workload", "all", "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", trace]
        runs.append(subprocess.run(cmd, cwd=args.checkout, capture_output=True, text=True))
        sys.stderr.write(runs[-1].stderr)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": commit_of(args.checkout),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "metrics": parse_metrics(runs[0].stdout),
        "per_layer": parse_metrics(runs[1].stdout),
    }
    out = args.dir / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    previous = previous_record(args.dir, args.number)
    if previous is None:
        print("no earlier record to compare with")
    else:
        print(f"against {previous.name}:")
        old = json.loads(previous.read_text(encoding="utf-8"))
        warning = bytecode_warning(old, record)
        if warning:
            print(warning)
        for line in diff_lines(old, record):
            print(line)
        print("per layer:")
        for line in diff_lines(old, record, "per_layer"):
            print(line)
    return max(run.returncode for run in runs)


if __name__ == "__main__":
    sys.exit(main())
