"""Fast self-test of the benchmark harness.

Runs every workload at tiny size in both modes and checks the result line
and every declared metric; also checks that the referee rejects wrong
outcomes and that the harness refuses to run without the engine's sources.
Run it from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from referee import Outcome, Referee  # noqa: E402
from tracer import read_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, script: Path = BENCH / "run.py", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]
        assert any(
            line.startswith(f"{workload} {m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]
    assert f"{workload} wrong_verdicts = 0 count" in lines
    if trace:
        header, spans = read_spans(BENCH / "out" / f"{workload}.spans")
        assert len(spans["name"]) == header["count"] > 0


def test_trace_confirms_the_layer_design():
    def per_layer(workload):
        proc = run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {name: m["value"] for name, m in metrics.items()}

    suffix = per_layer("suffix_unfold")
    assert suffix["containment.shortest_word.calls"] == 0
    assert suffix["containment.visited_pairs"] == sum(
        2 ** (n + 3) - 1 for n in workloads.TINY_SUFFIX_NS
    )
    assert per_layer("emptiness")["containment.shortest_word.calls"] > 0


def test_referee_rejects_wrong_outcomes():
    ref = Referee()
    suffix = workloads.build("suffix_unfold", 3, tiny=True).queries[0]
    assert ref.judge(suffix, Outcome(True, True, None, suffix.pairs)) is None
    assert ref.judge(suffix, Outcome(True, True, None, suffix.pairs + 1))
    assert ref.judge(suffix, Outcome(True, False, "", suffix.pairs))
    empty = next(q for q in workloads.build("emptiness", 3, tiny=True).queries if q.shortest)
    assert ref.judge(empty, Outcome(True, False, empty.shortest, 1)) is None
    assert ref.judge(empty, Outcome(True, False, empty.shortest + empty.shortest[-1], 1))
    # A crash exits 1 without a FAILS line: a wrong verdict, not a refutation.
    assert ref.judge_cli(suffix, 1, "Traceback (most recent call last):") not in (None, "failed")
    assert ref.judge_cli(suffix, 2, "") == "failed"


def test_referee_uses_the_slice_oracle():
    ref = Referee()
    q = workloads.Query("check", "bitset:abcd", "(a|b)*", "a*")
    assert ref.judge(q, Outcome(True, True, None, 1))
    assert ref.judge(q, Outcome(True, False, "b", 1)) is None
    assert ref.judge(q, Outcome(True, False, "a", 1))


def test_failed_queries_rank_slowest():
    import run

    ok, crash = Outcome(True, True), Outcome(False, error="RecursionError")
    outcomes = [[ok, crash], [ok, ok], [ok, crash]]
    times = [[0.5, 0.001], [0.7, 0.002], [0.6, 0.003]]
    fast, failing = run.query_latencies(outcomes, times)
    assert fast == 0.6
    assert failing == run.PASS_LIMIT_S + 0.001


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run("suffix_unfold", 0, script=tmp_path / "bench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
