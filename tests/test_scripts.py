"""Smoke tests for the scripts in scripts/, so they cannot drift from the API."""
from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_tiny_leafrank_census(capsys):
    script = runpy.run_path(str(SCRIPTS / "tiny_leafrank.py"))
    assert script["main"](["--max-vertices", "3", "--max-nodes", "6"]) == 0
    census = capsys.readouterr().out.split("census by rank:\n")[1]
    assert census == "  rank 1: 4 graph(s)\n  rank 2: 2 graph(s)\n  rank 3: 1 graph(s)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-vertices", "4", "--max-nodes", "3"], "max-nodes must be at least max-vertices"),
        (["--max-k", "0"], "max-k must be at least 1"),
    ],
)
def test_tiny_leafrank_refuses_bounds_the_search_rejects(capsys, argv, message):
    script = runpy.run_path(str(SCRIPTS / "tiny_leafrank.py"))
    with pytest.raises(SystemExit) as caught:
        script["main"](argv)
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert err.endswith(f": error: {message}\n")
