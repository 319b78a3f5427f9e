"""symre benchmark: one workload, one seed, one fresh process per run.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload

Each workload is a closed loop with one client: the harness issues the
workload's seeded queries one after another, in whole passes, until the
time is up, starting every pass from fresh builders.  There is no warm-up
pass; module imports happen before timing and are measured on their own
as ``setup_s``.  Between passes, one subprocess at a time, the harness
times fresh-process setups and runs a seeded sample of queries through the
``symre`` CLI.  After the passes a referee checks every outcome.  Every
reported time is scaled to a fixed machine speed by a reference kernel
timed next to it (see ``refspeed.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from a traced run, whose passes alternate with untraced ones to measure
the tracing overhead.  Earlier lines repeat every metric by name and unit,
together with the failure share and the number of wrong verdicts.  The
process exits 1 when the referee finds a wrong verdict and 2 when the
engine's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from refspeed import reference_time, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 11  # fresh processes timed for setup_s, after one untimed warm-up;
# in a traced run, pairs of interpreter launches timed for cli.import_ms
PASS_LIMIT_S = 60  # a pass still running after this is cut and its rest fails
CLI_LIMIT_S = 30


class PassTimeout(Exception):
    pass


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# -- timed passes ----------------------------------------------------------------


def run_pass(wl, retire=None, scaled=True):
    """One pass over the corpus; returns (outcomes, time of each query).

    A query's time runs from parse to verdict (or to the exception).  With
    ``scaled`` it is taken to the reference speed by the kernel's times
    just before and just after the query.  Queries that a cut pass never
    ran take 0 s.
    """
    import symre
    from referee import Outcome, make_builder

    def execute(q, b, checker):
        # Parse through verdict.  Engine entry points are looked up on the
        # package at call time, so the tracer's rebinding sees them.
        if q.kind == "match":
            return Outcome(True, symre.membership(b, q.lhs, b.parse(q.rhs)))
        if callable(q.lhs):
            lhs, rhs = q.lhs(b.algebra, b), q.rhs(b.algebra, b)
        else:
            lhs, rhs = b.parse(q.lhs), b.parse(q.rhs)
        v = checker.equivalent(lhs, rhs) if q.kind == "equiv" else checker.check(lhs, rhs)
        return Outcome(True, v.holds, v.witness, v.stats.visited)

    outcomes, times = [], []
    builders: dict = {}
    cut = False
    ref = reference_time() if scaled else 0.0

    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {PASS_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PASS_LIMIT_S)
    try:
        for q in wl.queries:
            if cut:
                outcomes.append(Outcome(False, error="PassTimeout"))
                times.append(0.0)
                continue
            if wl.builder_per_query or q.alphabet not in builders:
                b = make_builder(q.alphabet)
                builders[q.alphabet] = (b, symre.Checker(b))
            b, checker = builders[q.alphabet]
            t0 = time.perf_counter()
            try:
                out = execute(q, b, checker)
            except Exception as exc:  # a failed query is data, not a harness fault
                out = Outcome(False, error=type(exc).__name__)
                cut = isinstance(exc, PassTimeout)
            elapsed = time.perf_counter() - t0
            outcomes.append(out)
            if scaled:
                ref_before, ref = ref, reference_time()
                elapsed *= scale(ref_before, ref)
            times.append(elapsed)
            if wl.builder_per_query and retire:
                retire(b)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if retire and not wl.builder_per_query:
        for b, _ in builders.values():
            retire(b)
    return outcomes, times


class Passes:
    """What the timed loop collected: outcomes, durations and query times."""

    def __init__(self):
        self.plain: list[list] = []  # outcomes of each untraced pass
        self.plain_s: list[float] = []
        self.traced: list[list] = []
        self.traced_s: list[float] = []
        self.times: list[list[float]] = []  # per query, of each untraced pass
        self.first_pass_rss_mb = 0.0  # peak resident memory up to the end of pass one


def timed_passes(wl, seconds: float, tracer=None, side_jobs=()) -> Passes:
    """Whole passes until about ``seconds`` of pass time are used up.

    Another pass starts only if it is expected to end less than half a pass
    after the deadline.  ``side_jobs`` (subprocess measurements) run between
    passes, spread evenly over the pass time so that their samples see the
    machine in the same state as the passes; leftovers run at the end.
    With a tracer, passes alternate untraced, traced, untraced, ...
    """
    out = Passes()
    jobs, done, total = list(side_jobs), 0, 0.0
    while True:
        # Start every pass with the same collector state, so that the same
        # queries pay for the same collections in every pass.
        gc.collect()
        tracing = tracer is not None and len(out.plain) > len(out.traced)
        if tracing:
            tracer.install()
        t0 = time.perf_counter()
        try:
            # A traced run reports no times of queries, so it does not scale them.
            outcomes, times = run_pass(wl, tracer.retire if tracing else None, tracer is None)
        finally:
            if tracing:
                tracer.uninstall()
        duration = time.perf_counter() - t0
        total += duration
        if tracing:
            out.traced.append(outcomes)
            out.traced_s.append(duration)
        else:
            out.plain.append(outcomes)
            out.plain_s.append(duration)
            out.times.append(times)
        if not out.first_pass_rss_mb:
            out.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while done < len(jobs) and done < total / seconds * len(jobs):
            jobs[done]()
            done += 1
        passes = len(out.plain) + len(out.traced)
        if (tracer is None or out.traced) and total + total / passes / 2 >= seconds:
            break
    for job in jobs[done:]:
        job()
    return out


# -- subprocess measurements ----------------------------------------------------------


def time_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a Python child; returns its wall time, scaled to the reference
    speed, and the finished process."""
    ref = reference_time()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CLI_LIMIT_S,
    )
    elapsed = time.perf_counter() - t0
    return elapsed * scale(ref, reference_time()), proc


def setup_jobs(wl, runs: int, samples: list[float]) -> list:
    """Jobs timing, in fresh processes, the import of symre and the workload's
    builders; the untimed warm-up run that fills the bytecode cache happens here."""
    code = (
        f"import sys, time\nsys.path.insert(0, {str(BENCH)!r})\n"
        "from refspeed import reference_time, scale\n"
        "ref = reference_time()\nt0 = time.perf_counter()\n" + wl.setup_code
        + "print((time.perf_counter() - t0) * scale(ref, reference_time()))\n"
    )

    def job():
        _, proc = time_child(["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.split()[-1]))

    job()
    samples.clear()
    return [job] * runs


def import_jobs(runs: int, bare: list[float], loaded: list[float]) -> list:
    """Jobs timing interpreter launches without and with ``import symre.cli``."""

    def job():
        bare.append(time_child(["-c", "pass"])[0])
        loaded.append(time_child(["-c", "import symre.cli"])[0])

    return [job] * runs


def cli_jobs(wl, indices: list[int], runs: list) -> list:
    """Jobs running sampled queries through the CLI; each appends
    (query index, seconds, exit code, stdout), or a None time on timeout."""

    def job_for(i):
        q = wl.queries[i]

        def job():
            try:
                elapsed, proc = time_child(
                    ["-m", "symre.cli", q.kind, "--alphabet", q.alphabet, "--", q.lhs, q.rhs]
                )
            except subprocess.TimeoutExpired:
                runs.append((i, None, None, ""))
            else:
                runs.append((i, elapsed, proc.returncode, proc.stdout))

        return job

    return [job_for(i) for i in indices]


def interleave(*job_lists) -> list:
    """Merge job lists so that each is spread evenly over the result."""
    keyed = [
        ((k + 0.5) / len(jobs), n, job)
        for n, jobs in enumerate(job_lists)
        for k, job in enumerate(jobs)
    ]
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


# -- reporting ---------------------------------------------------------------------


def query_latencies(outcomes: list[list], times: list[list[float]]) -> list[float]:
    """Each query's median latency over the passes.

    A query that raised counts as ``PASS_LIMIT_S`` plus the time it ran, so
    it ranks slower than any decided query.  Taking each query's median
    first keeps a slow stretch of the machine to one sample of a query.
    """
    return [
        statistics.median(t if o.ok else PASS_LIMIT_S + t for o, t in zip(outs, ts))
        for outs, ts in zip(zip(*outcomes), zip(*times))
    ]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90), or the only value of a single sample."""
    if not values:
        raise RuntimeError("no latency was measured")
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def emit(workload: str, metrics: dict, units: dict, correct: bool, attempted: int,
         failed: int, extra: dict) -> None:
    """Print every declared metric by name and unit, then the JSON result line."""
    for name, unit in units.items():
        print(f"{workload} {name} = {metrics[name]:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def run_workload(args) -> int:
    import workloads
    from referee import Referee
    from tracer import Tracer

    # One CPU for the run and its children, so that the reference kernel runs
    # where the work it scales runs: with CLI children free to run on the
    # other CPU, cli_p50_ms spread about three times wider.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    repeats = 2 if args.tiny else SETUP_RUNS
    setup_samples, bare, loaded, cli_runs = [], [], [], []
    sample = wl.cli[:3] if args.tiny else wl.cli
    tracer = Tracer() if args.trace else None
    if args.trace:
        jobs = import_jobs(repeats, bare, loaded)
    else:
        jobs = interleave(setup_jobs(wl, repeats, setup_samples), cli_jobs(wl, sample, cli_runs))
    passes = timed_passes(wl, args.seconds, tracer, jobs)

    ref = Referee()
    failed, confirmed, wrong = ref.judge_passes(wl, passes.plain + passes.traced)
    attempted = len(wl.queries)
    failed_runs = len(failed)
    extra = {
        "passes": (len(passes.plain), "count"),
        "decided_queries": (len(wl.queries) - len(failed), "count"),
    }
    if args.trace:
        metrics = tracer.metrics(len(passes.traced))
        metrics["cli.import_ms"] = (statistics.median(loaded) - statistics.median(bare)) * 1e3
        metrics["trace.overhead_frac"] = (
            statistics.median(passes.traced_s) / statistics.median(passes.plain_s) - 1
        )
        units = declared_units("per_layer")
        self_time = tracer.layer_times()[0]
        total = sum(self_time.values()) or 1.0
        for layer, seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
            extra[f"share.{layer}"] = (seconds / total, "ratio")
        tracer.write(BENCH / "out" / f"{args.workload}.spans")
    else:
        cli_times: dict[int, list[float]] = {}
        for i, elapsed, code, stdout in cli_runs:
            problem = "failed" if elapsed is None else ref.judge_cli(wl.queries[i], code, stdout)
            if problem == "failed":
                failed_runs += 1
            elif problem:
                wrong.append(f"CLI run of query {i}: {problem}")
            else:
                cli_times.setdefault(i, []).append(elapsed)
        attempted += len(cli_runs)
        # The corpus's confirmed verdicts over the time of a typical pass:
        # the sum of each query's median time, failed queries included.
        per_query_s = [statistics.median(t) for t in zip(*passes.times)]
        latencies = query_latencies(passes.plain, passes.times)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "queries_per_s": len(confirmed - failed) / sum(per_query_s),
            "query_p50_ms": quantile(latencies, 50) * 1e3,
            "query_p90_ms": quantile(latencies, 90) * 1e3,
            "peak_rss_mb": passes.first_pass_rss_mb,
            # Each sampled query's median over its runs, then their median.
            "cli_p50_ms": quantile([statistics.median(t) for t in cli_times.values()], 50) * 1e3,
        }
        units = declared_units("end_to_end")
        extra["fail_frac"] = (failed_runs / attempted, "ratio")
        extra["cli_runs"] = (sum(map(len, cli_times.values())), "count")
    extra["wrong_verdicts"] = (len(wrong), "count")
    for message in wrong[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    kinds = Counter(passes.plain[0][i].error for i in sorted(failed) if not passes.plain[0][i].ok)
    for kind, count in sorted(kinds.items()):
        print(f"failed in the first pass: {count} x {kind}", file=sys.stderr)
    emit(args.workload, metrics, units, not wrong, attempted, failed_runs, extra)
    return 1 if wrong else 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mixed_queries", "suffix_unfold", "emptiness", "long_words", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpora, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "symre" / "__init__.py").is_file():
        print(f"error: the symre sources are missing (expected src/symre under {ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
