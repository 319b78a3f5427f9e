import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line counted


class A:
    """Class docstring."""

    # a comment-only line

    def f(self):
        """Function
        docstring."""
        text = """a string that is
not a docstring
spans three lines"""
        return text
'''


def test_counts_code_lines_only():
    # import, class, def, the three lines of ``text`` and the return
    assert code_lines.code_lines(SOURCE) == 7


def test_docstrings_comments_and_blank_lines_are_excluded():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# a comment\n') == 0
    assert code_lines.code_lines("def f():\n    '''Doc.'''\n    # note\n\n    return 1\n") == 2


def test_a_string_that_is_not_a_docstring_counts_every_line():
    assert code_lines.code_lines("x = 1\ny = '''one\ntwo\nthree'''\n") == 4
    # a string after the first statement is not a docstring
    assert code_lines.code_lines("x = 1\n'''not\na docstring'''\n") == 3


def test_total_comes_last(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(SOURCE, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "7", "8"]
    assert lines[-1].endswith("  total")


def test_a_closed_pipe_ends_the_run_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = subprocess.run(
            [sys.executable, str(TOOL), str(TOOL)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == ""
