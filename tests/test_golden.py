"""Golden digests of whole CLI runs.

Each run goes through `cli.main` in process; its stdout and stderr are
pinned by sha256 and its exit code as is, so any change to a quotient
stream, a JSON field, a text line or an exit code shows here.  The runs
cover the engine with and without jumps, certification at the sweep and
at deep depths, the `tp` negative control, the identities and the
pattern alone, and the two kinds of equation no pattern describes: the
all-linear family and a dense equation read from a file.

After an intended change of output, print the new table with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hypercf import cli
from hypercf.grids import verification_steps

#: a dense quartic over F_5 with one root of degree >= 1: 400 quotients
#: with jumps, and no block pattern to compare them with
DENSE_EQUATION = "4: 1\n3: 0 1 2\n2: 4 1\n1: 0 3\n0: 2 0 1\n"

RUNS = {
    "expand_65": ["expand", "--p", "7", "--u", "2,4,5", "--steps", "65"],
    "expand_410_json": ["expand", "--p", "7", "--u", "2,4,5", "--steps", "410",
                        "--format", "json"],
    **{
        f"verify_grid_p{p}": ["verify", "--grid", "--p", str(p), "--steps",
                              str(verification_steps(p)), "--format", "json",
                              "--jobs", "1"]
        for p in (3, 5, 7, 11)
    },
    "verify_tp_control": ["verify", "--p", "7", "--u", "2,4,5", "--steps", "65",
                          "--r-convention", "tp"],
    "verify_2813": ["verify", "--p", "7", "--u", "2,4,5", "--steps", "2813"],
    "verify_410_json": ["verify", "--p", "7", "--u", "2,4,5", "--steps", "410",
                        "--format", "json"],
    "identities_p3": ["identities", "--p", "3", "--fib-count", "800"],
    "pattern_p5": ["pattern", "--p", "5", "--u", "1,3,2", "--steps", "40"],
    "expand_all_linear": ["expand", "--p", "7", "--u1", "2", "--steps", "300"],
    "expand_dense_file": ["expand", "--p", "5", "--equation-file", "{dense}",
                          "--steps", "400"],
}

#: name: (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "expand_65": (0, "d1417a6841eb90152feb959d3853fb2d448541a4a0a71511423399f5273cec61",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand_410_json": (0, "df552497b8cbeb064ff8b1062f69a88af41be14461b872033b6fc1cc8de58ac6",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_grid_p3": (0, "fdf402a189847f8a7e006caf4b86016cd40f12bfdc01a4a13a3e7062b0e1621d",
                       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_grid_p5": (0, "ddbd2c00747b76cfd80f39f932d56bd03bf9e5849d20fe02869ea88cb0bfb50a",
                       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_grid_p7": (0, "3bf280b62c7bf83a899c8fac257bd0c5831a909a3268f88bb1f083c8cce4f7ab",
                       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_grid_p11": (0, "40b77473bce014953c62e1b2888d852644a3aa202b876011fc51924c1b2c382b",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_tp_control": (1, "1ce2775745746f243c8be14d89cebebc43e0d30124a5b2ed05e574ce676e409d",
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_2813": (0, "4de2e23d3823d109bbca1712d3aa869100f9ae880bd7a124baac999d430ea62f",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_410_json": (0, "3aa7a2dfef57dc53db8a71e00596421e811c2e36a00307422853e0fa9c392962",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "identities_p3": (0, "8a70d713ff7abd052ea2f9de37ed0adc9d7fb4691fd43e023333af3606f2ad55",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pattern_p5": (0, "3a909cced03f97dd0a6ca9c5ea4c4f90ea2ef24f066210312ef7ef879ccc1e7d",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand_all_linear": (0, "360618467214c06e0cf29b12fa89096386e3e564340ff87fe7e21fc1374bf18d",
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand_dense_file": (0, "62c42e4d4b79f08cc81d5fcb0087a9d7b90310502cd816bd0140e0a7d85e0cea",
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(name: str, directory: Path) -> tuple:
    """The exit code and the stdout and stderr digests of one run."""
    dense = directory / "dense.txt"
    dense.write_text(DENSE_EQUATION)
    argv = [arg.format(dense=dense) for arg in RUNS[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, _digest(out.getvalue()), _digest(err.getvalue())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_its_golden_digest(name, tmp_path):
    assert run_digest(name, tmp_path) == GOLDEN[name]


def test_every_run_has_a_digest():
    assert GOLDEN.keys() == RUNS.keys()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in RUNS:
            code, out, err = run_digest(name, Path(tmp))
            print(f'    "{name}": ({code}, "{out}",\n{" " * (len(name) + 9)}"{err}"),')
        print("}")
    sys.exit(0)
