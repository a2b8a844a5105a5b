"""Smoke test for the example script under ``scripts/``."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_subspace_demo_mixing_beats_every_member(capsys):
    demo = runpy.run_path(str(SCRIPTS / "subspace_demo.py"))
    assert demo["main"](["--n", "2", "--k", "2", "--iters", "5", "--members", "2"]) == 0
    assert "mixing matched or improved" in capsys.readouterr().out
