"""What a fresh process loads: the engine imports only what a query needs.

Each probe runs a new ``python -S -X importtime`` child, so the interpreter
starts bare and every module the command imports is listed on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symre

SRC = Path(__file__).resolve().parents[1] / "src"

# Loaded only by a query that needs them, or never by the engine.
HEAVY = {"dataclasses", "inspect", "typing", "json", "symre.oracle", "symre.regexalg"}


def run_child(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def imported(*args: str) -> set[str]:
    """The modules a fresh bare interpreter imports to run ``args``."""
    proc = run_child(*args)
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and fields[1].strip().isdigit():
            names.add(fields[2].strip())
    return names


def test_import_symre_loads_no_heavy_module():
    added = imported("-c", "import symre") - imported("-c", "pass")
    assert "symre.containment" in added
    assert not added & HEAVY


def test_a_cli_check_loads_neither_json_nor_the_oracle():
    # what argparse itself loads varies across Python versions, so typing is
    # checked through the package import alone
    assert not imported("-m", "symre.cli", "check", "a", "a") & (HEAVY - {"typing"})


LAZY_USE = """\
import sys
import symre
print(sorted(m for m in ("symre.oracle", "symre.regexalg") if m in sys.modules))
print(sorted(set(symre.__all__) - set(dir(symre))))
print(symre.RegexAlgebra.__module__)
from symre import SliceOracle
print(SliceOracle.__module__)
names = {}
exec("from symre import *", names)
print(sorted(set(symre.__all__) - set(names)))
"""


def test_lazy_names_resolve_on_first_use():
    proc = run_child("-c", LAZY_USE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "symre.regexalg", "symre.oracle", "[]"]


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        symre.no_such_name
    assert not hasattr(symre, "no_such_name")
