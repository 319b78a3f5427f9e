import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# What ``bench/run.py --workload all`` prints: metric lines per workload, and
# other lines (a referee message, a result line) that are not metrics.
OUTPUT = """\
mixed_queries setup_s = 0.0318 s
mixed_queries queries_per_s = 1261.9 1/s
mixed_queries wrong_verdicts = 0 count
wrong: not a metric line
emptiness queries_per_s = 2786.69 1/s
emptiness peak_rss_mb = 19.2461 MB
{"correct": true, "attempted": 15, "failed": 0, "metrics": {}}
"""

# What ``bench/run.py --workload all --trace 1`` prints: per-layer metric lines.
TRACED = """\
mixed_queries alphabet.self_s = 0.185 s
mixed_queries alphabet.scan_steps = 123853 count
mixed_queries share.alphabet = 0.39 ratio
emptiness containment.visited_pairs = 512 count
{"correct": true, "attempted": 15, "failed": 0, "metrics": {}}
"""


def test_parses_metric_lines_only():
    metrics = bench_record.parse_metrics(OUTPUT)
    assert metrics == {
        "mixed_queries": {
            "setup_s": {"value": 0.0318, "unit": "s"},
            "queries_per_s": {"value": 1261.9, "unit": "1/s"},
            "wrong_verdicts": {"value": 0.0, "unit": "count"},
        },
        "emptiness": {
            "queries_per_s": {"value": 2786.69, "unit": "1/s"},
            "peak_rss_mb": {"value": 19.2461, "unit": "MB"},
        },
    }


def test_diff_gives_ratios_new_over_old():
    old = {"metrics": bench_record.parse_metrics(OUTPUT)}
    new = {"metrics": bench_record.parse_metrics(
        OUTPUT.replace("1261.9 1/s", "2523.8 1/s").replace("peak_rss_mb = 19.2461", "cli_p50_ms = 90")
    )}
    assert bench_record.diff_lines(old, new) == [
        "emptiness cli_p50_ms = 90 MB  new",
        "emptiness peak_rss_mb: only in the old record",
        "emptiness queries_per_s = 2786.69 1/s  x1.000",
        "mixed_queries queries_per_s = 2523.8 1/s  x2.000",
        "mixed_queries setup_s = 0.0318 s  x1.000",
        "mixed_queries wrong_verdicts = 0 count  =",
    ]


def test_diff_of_the_per_layer_metrics():
    old = {"metrics": {}, "per_layer": bench_record.parse_metrics(TRACED)}
    new = {"metrics": {}, "per_layer": bench_record.parse_metrics(
        TRACED.replace("0.185 s", "0.0925 s")
    )}
    assert bench_record.diff_lines(old, new, "per_layer") == [
        "emptiness containment.visited_pairs = 512 count  x1.000",
        "mixed_queries alphabet.scan_steps = 123853 count  x1.000",
        "mixed_queries alphabet.self_s = 0.0925 s  x0.500 (unscaled wall-clock)",
        "mixed_queries share.alphabet = 0.39 ratio  x1.000",
    ]
    # a record written before per-layer metrics were recorded has none
    assert bench_record.diff_lines({"metrics": {}}, new, "per_layer")[0] == (
        "emptiness containment.visited_pairs = 512 count  new"
    )
    assert bench_record.diff_lines(new, {"metrics": {}}, "per_layer")[0] == (
        "emptiness containment.visited_pairs: only in the old record"
    )


def test_marks_the_per_layer_times_as_unscaled():
    # the traced run's layer times are raw wall-clock, so their ratio may be
    # the host's speed; the scaled cli.import_ms and the counts are not marked
    lines = {
        "emptiness containment.self_s = 0.3 s",
        "emptiness containment.shortest_word.s = 0.2 s",
        "emptiness containment.us_per_pair = 4 us",
        "emptiness cli.import_ms = 30 ms",
        "emptiness containment.visited_pairs = 512 count",
    }
    old = bench_record.parse_metrics("\n".join(sorted(lines)))
    new = {w: {n: {**m, "value": 2 * m["value"]} for n, m in ms.items()} for w, ms in old.items()}
    assert bench_record.diff_lines({"per_layer": old}, {"per_layer": new}, "per_layer") == [
        "emptiness cli.import_ms = 60 ms  x2.000",
        "emptiness containment.self_s = 0.6 s  x2.000 (unscaled wall-clock)",
        "emptiness containment.shortest_word.s = 0.4 s  x2.000 (unscaled wall-clock)",
        "emptiness containment.us_per_pair = 8 us  x2.000 (unscaled wall-clock)",
        "emptiness containment.visited_pairs = 1024 count  x2.000",
    ]
    # the same metrics compared as end-to-end ones are scaled, so not marked
    assert not any("unscaled" in line for line in bench_record.diff_lines({"metrics": old}, {"metrics": new}))


def test_compares_with_the_newest_earlier_record(tmp_path):
    assert bench_record.previous_record(tmp_path, 18) is None
    for n in (2, 9, 17, 19):
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps({"metrics": {}}))
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert bench_record.previous_record(tmp_path, 18).name == "BENCH_17.json"
    assert bench_record.previous_record(tmp_path, 10).name == "BENCH_9.json"
    assert bench_record.previous_record(tmp_path, 2) is None


def test_warns_when_records_differ_in_the_bytecode_setting():
    set_, unset, unknown = ({"dont_write_bytecode": v} for v in (True, False, None))
    assert bench_record.bytecode_warning(set_, {"dont_write_bytecode": True}) is None
    assert bench_record.bytecode_warning(unset, unset) is None
    assert bench_record.bytecode_warning(set_, unset) == (
        "warning: PYTHONDONTWRITEBYTECODE was set in the old record and unset in the "
        "new one; setup_s and cli_p50_ms do not compare"
    )
    # a record written before the setting was recorded does not say
    assert "was not recorded in the old record and set" in bench_record.bytecode_warning(
        {}, set_
    )
    assert bench_record.bytecode_warning({}, unknown) is None


def test_writes_the_record_and_prints_the_diff(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    # a checkout whose benchmark prints the canned output of a plain or a
    # traced run; it is no git tree
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "traced = sys.argv[sys.argv.index('--trace') + 1] == '1'\n"
        f"print({TRACED!r} if traced else {OUTPUT!r}, end='')\n"
    )
    old = {"metrics": {"emptiness": {"queries_per_s": {"value": 1393.345, "unit": "1/s"}}}}
    (tmp_path / "BENCH_3.json").write_text(json.dumps(old))
    argv = ["4", "--seed", "7", "--seconds", "2", "--checkout", str(tmp_path), "--dir", str(tmp_path)]
    assert bench_record.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_4.json").read_text())
    assert record == {
        "seed": 7,
        "seconds": 2.0,
        "commit": "unknown",
        "dont_write_bytecode": True,
        "metrics": bench_record.parse_metrics(OUTPUT),
        "per_layer": bench_record.parse_metrics(TRACED),
    }
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "against BENCH_3.json:"
    assert out[2].startswith("warning: PYTHONDONTWRITEBYTECODE was not recorded")
    assert "emptiness queries_per_s = 2786.69 1/s  x2.000" in out
    # the per-layer metrics follow the end-to-end ones; the old record has none
    layer = out.index("per layer:")
    assert out[layer - 1] == "mixed_queries wrong_verdicts = 0 count  new"
    assert out[layer + 1:] == [
        "emptiness containment.visited_pairs = 512 count  new",
        "mixed_queries alphabet.scan_steps = 123853 count  new",
        "mixed_queries alphabet.self_s = 0.185 s  new",
        "mixed_queries share.alphabet = 0.39 ratio  new",
    ]
