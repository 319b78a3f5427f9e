import json

import pytest

from symre import cli
from symre.containment import CheckStats, Verdict, replay_trace
from symre.cli import main
from symre.syntax import MAX_NESTING

ABC = ["--alphabet", "bitset:abc"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------------


def test_check_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", *ABC, "(a|b)|c", "a|b")
    assert code == 1
    assert out == "FAILS witness=c\n"


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", *ABC, "a*", "(a|b)*")
    assert code == 0
    assert out == "HOLDS\n"


def test_check_default_alphabet_is_unicode(capsys):
    code, out, _ = run(capsys, "check", "[a-m][0-9]", "[a-z].")
    assert code == 0 and out == "HOLDS\n"


def test_check_flags(capsys):
    for extra in (["--no-axioms"], ["--global-memo", "false"], ["--fuel", "4096"]):
        code, out, _ = run(capsys, "check", *ABC, *extra, "(a|b)|c", "a|b")
        assert code == 1 and out == "FAILS witness=c\n"


@pytest.mark.parametrize(
    "command",
    [["match", "a", "a"], ["derive", "--by", "a", "ab"], ["next", "a"]],
    ids=["match", "derive", "next"],
)
def test_checker_options_only_on_the_checking_commands(capsys, tmp_path, command):
    # match, derive and next run no check, so the checker's options are
    # usage errors there rather than silently ignored
    path = tmp_path / "trace.jsonl"
    for option in (
        ["--fuel", "4"], ["--no-axioms"], ["--global-memo", "false"], ["--trace-json", str(path)]
    ):
        with pytest.raises(SystemExit) as exc:
            main([command[0], *ABC, *option, *command[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not path.exists()


def test_global_memo_flag_values(capsys):
    code, out, _ = run(capsys, "check", *ABC, "--global-memo", "true", "a*", "(a|b)*")
    assert code == 0 and out == "HOLDS\n"
    with pytest.raises(SystemExit) as exc:
        main(["check", *ABC, "--global-memo", "maybe", "a*", "(a|b)*"])
    assert exc.value.code == 2
    assert "expected a boolean, got 'maybe'" in capsys.readouterr().err


def test_fuel_exhaustion_exit_code(capsys):
    code, out, err = run(capsys, "check", *ABC, "--fuel", "2", "(ab|ba)*", "(aa|bb)*")
    assert code == 2
    assert not out
    assert "fuel exhausted after" in err and "visited pairs" in err


def test_emptiness_search_fuel_exhaustion_names_its_units(capsys):
    # one visited pair, whose emptiness search runs out of fuel
    argv = ["--alphabet", "bitset:ab", "--fuel", "5", "(a|b)*a(a|b)(a|b)(a|b)&.*b", "[]"]
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and not out
    assert "fuel exhausted after 6 emptiness-search nodes (word length 3)" in err


@pytest.mark.parametrize("fuel", ["0", "-3", "x"])
def test_fuel_below_one_is_a_usage_error(capsys, fuel):
    with pytest.raises(SystemExit) as exc:
        main(["check", *ABC, "--fuel", fuel, "a", "a"])
    assert exc.value.code == 2
    assert "--fuel" in capsys.readouterr().err


# -- equiv / match ----------------------------------------------------------------


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", *ABC, "(a|b)*", "(a*b*)*")
    assert code == 0 and out == "HOLDS\n"
    code, out, _ = run(capsys, "equiv", *ABC, "a", "a|b")
    assert code == 1 and out == "FAILS witness=b\n"


def test_match(capsys):
    code, out, _ = run(capsys, "match", *ABC, "c", "(a|b)|c")
    assert code == 0 and out == "MATCH\n"
    code, out, _ = run(capsys, "match", *ABC, "ac", "(a.c)&(b.c)")
    assert code == 1 and out == "NO-MATCH\n"
    code, out, _ = run(capsys, "match", *ABC, "\\u{63}", "c")
    assert code == 0


def test_match_outside_the_universe(capsys):
    # a symbol outside the alphabet is in no language, a complement's included
    for extra in ([], ["--oracle-check"]):
        code, out, _ = run(capsys, "match", "--alphabet", "bitset:ab", *extra, "z", "!a")
        assert code == 1 and out == "NO-MATCH\n"


# -- derive / next ------------------------------------------------------------------


def test_derive_by_char(capsys):
    code, out, _ = run(capsys, "derive", *ABC, "--by", "a", "a*b")
    assert code == 0 and out == "a*b\n"


def test_derive_by_class(capsys):
    code, out, _ = run(capsys, "derive", *ABC, "--by", "[ab]", "(a|b)c*")
    assert code == 0 and out == "c*\n"


def test_derive_rejects_non_refining_class(capsys):
    code, out, err = run(capsys, "derive", *ABC, "--by", "[ab]", "a*")
    assert code == 2 and "does not refine" in err


def test_derive_rejects_the_empty_class(capsys):
    code, out, err = run(capsys, "derive", *ABC, "--by", "[]", "a*")
    assert code == 2 and not out
    assert "cannot derive by the empty class" in err


def test_next_outputs_one_literal_per_line(capsys):
    code, out, _ = run(capsys, "next", "--alphabet", "unicode", "!(a|b)")
    assert code == 0
    assert sorted(out.splitlines()) == ["[^ab]", "[ab]"]
    code, out, _ = run(capsys, "next", *ABC, "!(a|b)")
    assert sorted(out.splitlines()) == ["[ab]", "c"]
    code, out, _ = run(capsys, "next", *ABC, "()")
    assert code == 0 and out == ""


# -- traces ---------------------------------------------------------------------------


def test_trace_json_file(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    code, out, _ = run(
        capsys, "check", *ABC, "--trace-json", str(path), "(a|b)|c", "a|b"
    )
    assert code == 1
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(
        set(e) == {"rule", "lhs", "rhs", "literal", "depth"} for e in events
    )
    rules = {e["rule"] for e in events}
    assert rules <= {
        "disprove", "cycle", "unfold", "prove-identity", "prove-universal",
        "prove-conjunct", "disprove-empty", "prove-empty-language",
    }
    assert replay_trace(events) is False


@pytest.mark.parametrize(
    "lhs,rhs,code",
    # holds both ways; holds one way and fails the other; fails at once
    [("a*", "(a)*", 0), ("a", "a*", 1), ("a*", "a", 1)],
)
def test_equiv_trace_replays_to_its_verdict(capsys, tmp_path, lhs, rhs, code):
    # an equivalence that holds one way traces the converse containment too
    path = tmp_path / "trace.jsonl"
    argv = ["equiv", "--alphabet", "bitset:ab", "--trace-json", str(path), lhs, rhs]
    assert run(capsys, *argv)[0] == code
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert replay_trace(events) is (code == 0)


def test_trace_file_that_cannot_be_written_is_an_error(capsys, tmp_path):
    # the file opens before the check: a check that would run out of fuel
    # reports the unwritable path, not the fuel
    path = tmp_path / "missing" / "t.jsonl"
    for query in (["a", "a"], ["--fuel", "1", "(ab|ba)*", "(aa|bb)*"]):
        code, out, err = run(capsys, "check", *ABC, "--trace-json", str(path), *query)
        assert code == 2
        assert not out
        assert err.startswith("error: [Errno") and "t.jsonl" in err and "fuel" not in err


def test_trace_cut_short_by_fuel_holds_the_events_before_the_cap(capsys, tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    path = tmp_path / "trace.jsonl"
    query = ["--fuel", "2", "(ab|ba)*", "(aa|bb)*"]
    code, out, err = run(capsys, "trace", *ABC, *query)
    assert code == 2 and "fuel exhausted after" in err
    events = [json.loads(line) for line in out.splitlines()]
    assert events and not opened
    with pytest.raises(ValueError, match="ends inside an unfolding"):
        replay_trace(events)
    # both streams at once: the file gets the same lines, and is closed
    assert run(capsys, "trace", *ABC, "--trace-json", str(path), *query)[:2] == (2, out)
    assert len(opened) == 1 and opened[0].closed
    assert path.read_text() == out


def test_trace_subcommand_streams_to_stdout(capsys):
    code, out, err = run(capsys, "trace", *ABC, "(a|b)|c", "a|b")
    assert code == 1
    events = [json.loads(line) for line in out.splitlines()]
    assert replay_trace(events) is False
    assert err == "FAILS witness=c\n"


# -- oracle cross-check -----------------------------------------------------------------


def test_oracle_check_confirms(capsys):
    code, out, _ = run(capsys, "check", *ABC, "--oracle-check", "(a|b)|c", "a|b")
    assert code == 1
    code, out, _ = run(capsys, "check", *ABC, "--oracle-check", "a*", "(a|b)*")
    assert code == 0
    code, out, _ = run(capsys, "match", *ABC, "--oracle-check", "c", "(a|b)|c")
    assert code == 0
    code, out, _ = run(capsys, "equiv", *ABC, "--oracle-check", "a", "a|b")
    assert code == 1


def test_oracle_check_needs_small_bitset(capsys):
    # the oracle is built before deciding, so no verdict is printed
    for argv in (
        ["check", "--oracle-check", "a", "a|b"],
        ["equiv", "--oracle-check", "a", "a|b"],
        ["trace", "--oracle-check", "a", "a|b"],
        ["match", "--oracle-check", "a", "a|b"],
        ["check", "--alphabet", "bitset:abcdefghij", "--oracle-check", "a", "a|b"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "oracle-check" in err, argv
    # next and derive give no verdict to cross-check, so the option is a
    # usage error there rather than silently ignored
    for argv in (["next", "--oracle-check", "a"], ["derive", "--oracle-check", "--by", "a", "ab"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *ABC, *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle-check" in capsys.readouterr().err


def test_oracle_disagreement_on_membership(capsys, monkeypatch):
    # a refuted match answer exits 3 before anything is printed
    real = cli.membership
    monkeypatch.setattr(cli, "membership", lambda b, w, e: not real(b, w, e))
    code, out, err = run(capsys, "match", *ABC, "--oracle-check", "c", "(a|b)|c")
    assert (code, out) == (3, "")
    assert err == "oracle disagreement: membership verdict not confirmed\n"
    # a word longer than the oracle's slice is not cross-checked
    long_word = "a" * (cli.ORACLE_LEN + 1)
    code, out, err = run(capsys, "match", *ABC, "--oracle-check", long_word, "a*")
    assert (code, out, err) == (1, "NO-MATCH\n", "")


@pytest.mark.parametrize(
    "verdict, line",
    [(Verdict(True, None, CheckStats(1, 0)), "HOLDS"),
     (Verdict(False, "b", CheckStats(1, 1)), "FAILS witness=b")],
)
def test_oracle_disagreement_on_a_verdict(capsys, monkeypatch, verdict, line):
    # a refuted verdict exits 3 after its verdict line: a wrong HOLDS, or a
    # witness that is in both sides
    monkeypatch.setattr(cli.Checker, "check", lambda self, lhs, rhs: verdict)
    msg = "oracle disagreement: verdict not confirmed by the slice oracle\n"
    for command in ("check", "equiv"):
        code, out, err = run(capsys, command, *ABC, "--oracle-check", "(a|b)|c", "a|b")
        assert (code, out, err) == (3, line + "\n", msg), command
    code, out, err = run(capsys, "trace", *ABC, "--oracle-check", "(a|b)|c", "a|b")
    assert (code, out, err) == (3, "", line + "\n" + msg)


# -- errors and metrics --------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "check", *ABC, "(a|b", "a")
    assert code == 2
    assert "position 4" in err


def test_symbol_outside_a_finite_alphabet_is_a_parse_error(capsys):
    # no counted repetition: '{' is a symbol, and bitset:abc lacks it
    code, out, err = run(capsys, "check", *ABC, "a{2}", "b")
    assert code == 2 and not out
    assert "symbol '{' is not in the alphabet (at position 1)" in err
    # and so is the symbol a derivative is taken by; ``[{]`` is the empty class
    code, out, err = run(capsys, "derive", *ABC, "--by", "{", "a")
    assert code == 2 and not out
    assert "symbol '{' is not in the alphabet (at position 0)" in err
    code, out, err = run(capsys, "derive", *ABC, "--by", "[{]", "a")
    assert code == 2 and "cannot derive by the empty class" in err
    # over unicode, a{2} is the four-symbol word
    code, out, _ = run(capsys, "match", "a{2}", "a{2}")
    assert code == 0 and out == "MATCH\n"


@pytest.mark.parametrize("text", ["\\u{+4_1}", "\\u{4_1}", "\\u{ 41 }", "\\u{-1}", "[\\u{-1}]"])
def test_hex_escape_takes_only_hex_digits(capsys, text):
    code, out, err = run(capsys, "check", text, "A")
    assert code == 2 and not out
    assert "bad hex escape" in err and "at position" in err
    code, out, err = run(capsys, "match", text, "A")
    assert code == 2 and not out and "at position" in err


def test_bad_alphabet(capsys):
    code, _, err = run(capsys, "check", "--alphabet", "weird", "a", "a")
    assert code == 2 and "unknown alphabet" in err


def test_raw_metrics(capsys):
    code, out, _ = run(capsys, "check", *ABC, "--raw-metrics", "(a|b)|c", "a|b")
    lines = out.splitlines()
    assert lines[0] == "raw-metrics lhs: size=5 width=3"
    assert lines[1] == "raw-metrics rhs: size=3 width=2"
    assert lines[2] == "FAILS witness=c"


def test_witness_escaping(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "cofinite", "[^a]", "[]")
    assert code == 1
    assert out == "FAILS witness=\\u{0}\n"


def test_internal_error_exit_code(capsys, monkeypatch):
    # a crash must exit 2, never 1 (FAILS)
    def crash(self, lhs, rhs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli.Checker, "check", crash)
    code, out, err = run(capsys, "check", *ABC, "a", "a*")
    assert code == 2
    assert not out
    assert err.startswith("error: internal error: RuntimeError: ")


def test_long_word_gets_a_verdict(capsys):
    code, out, err = run(capsys, "check", "--raw-metrics", "a" * 3000, "a*")
    assert code == 0 and not err
    assert out.splitlines() == [
        "raw-metrics lhs: size=5999 width=3000",
        "raw-metrics rhs: size=2 width=1",
        "HOLDS",
    ]


def test_long_chain_of_nullable_heads_gets_a_verdict(capsys):
    code, out, err = run(capsys, "check", "--alphabet", "bitset:ab", "a*" * 300, "a*")
    assert code == 0 and not err
    assert out == "HOLDS\n"


def test_longer_chains_of_nullable_heads_get_verdicts(capsys):
    code, out, err = run(capsys, "check", "--alphabet", "bitset:ab", "a*" * 600, "a*")
    assert code == 0 and not err and out == "HOLDS\n"
    code, out, err = run(capsys, "check", "--alphabet", "bitset:ab", "(a|())" * 500 + "b", "[]")
    assert code == 1 and not err and out == "FAILS witness=b\n"


def test_nesting_limit_exit_code(capsys):
    code, out, err = run(capsys, "check", "(" * 5000, "a")
    assert code == 2
    assert not out
    assert err.startswith("error: ") and "internal" not in err
    assert f"nested deeper than {MAX_NESTING}" in err
