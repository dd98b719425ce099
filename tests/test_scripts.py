"""Smoke tests for the scripts in scripts/, so they cannot drift from the API."""
from __future__ import annotations

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_tiny_leafrank_census(capsys):
    script = runpy.run_path(str(SCRIPTS / "tiny_leafrank.py"))
    assert script["main"](["--max-vertices", "3", "--max-nodes", "6"]) == 0
    census = capsys.readouterr().out.split("census by rank:\n")[1]
    assert census == "  rank 1: 4 graph(s)\n  rank 2: 2 graph(s)\n  rank 3: 1 graph(s)\n"
