"""Smoke tests of the scripts under scripts/: each runs in process on its
committed inputs and must print what the package itself reports."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from test_acceptance import REFERENCE_CFE, REFERENCE_DEGREES, REFERENCE_LEADS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_golden_prints_the_reference_stream(capsys):
    load("reproduce_golden").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "p= 7",
        REFERENCE_CFE,
        f"degrees {REFERENCE_DEGREES}",
        f"lead.coef. {REFERENCE_LEADS}",
    ]


def test_sweep_verify_passes_every_committed_triple(capsys):
    assert load("sweep_verify").main() == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^p=.*: +ok \(", out, flags=re.M)) == 20
    assert "FAILED" not in out
