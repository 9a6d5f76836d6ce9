"""Golden digests of whole CLI runs.

Each run goes through `cli.main` in process; its stdout and stderr are
pinned by sha256 and its exit code as is, so any change to a quotient
stream, a JSON field, a text line or an exit code shows here.  The runs
cover the engine with and without jumps, certification at the sweep and
at deep depths (one run printing two text rows), the `tp` negative
control, the identities, the degree measure and the pattern alone, each
in text and in JSON, and the two kinds of equation no pattern describes:
the all-linear family and a dense equation read from a file, and a
rational root reached at a run's last quotient.  The root test's four exits are
pinned too: a constant root and a constant quotient that aborts, each at
a run's last quotient and at an earlier step.

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

#: t*x - (t^2 + 1) over F_5, whose root t + 1/t is [t, t]: at two steps
#: the rational end falls on the run's last quotient
RATIONAL_EQUATION = "1: 0 1\n0: 4 0 4\n"

#: x - 3 over F_5, whose root is the constant 3: no quotient is emitted
CONSTANT_ROOT_EQUATION = "1: 1\n0: 2\n"

#: x^2 + (3t + 4)x + (4t + 2) over F_5: one quotient, then the constant
#: quotient 2, which is not the root, aborts the run
ABORT_EQUATION = "2: 1\n1: 4 3\n0: 2 4\n"

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
    "pattern_p5_json": ["pattern", "--p", "5", "--u", "1,3,2", "--steps", "40",
                        "--format", "json"],
    "identities_p7_json": ["identities", "--p", "7", "--format", "json"],
    "measure_p7": ["measure", "--p", "7", "--k", "3", "--steps", "65"],
    "measure_p7_json": ["measure", "--p", "7", "--k", "3", "--steps", "65",
                        "--format", "json"],
    "measure_p5": ["measure", "--p", "5", "--k", "2"],
    "measure_p11_json": ["measure", "--p", "11", "--k", "3", "--steps", "141",
                         "--format", "json"],
    "measure_p13": ["measure", "--p", "13", "--k", "2", "--steps", "191"],
    "verify_two_rows": ["verify", "--p", "7", "--u", "2,4,5", "--u", "5,2,2",
                        "--steps", "65"],
    "expand_all_linear": ["expand", "--p", "7", "--u1", "2", "--steps", "300"],
    "expand_dense_file": ["expand", "--p", "5", "--equation-file", "{dense}",
                          "--steps", "400"],
    "expand_rational_file": ["expand", "--p", "5", "--equation-file", "{rational}",
                             "--steps", "2"],
    **{
        f"expand_{key}_{where}": ["expand", "--p", "5", "--equation-file", f"{{{key}}}",
                                  "--steps", steps]
        for key, last in (("constant_root", "1"), ("abort", "2"))
        for where, steps in (("last", last), ("step", "4"))
    },
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
    "pattern_p5_json": (0, "52df403959fd80711e16595bbdc0bc5e05b337799de1cc7249224425e74ff908",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "identities_p7_json": (0, "c4d7f0ef1166d5e21fe61cb79ec69cc5889ed154e45584427e03dbe159ea56eb",
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "measure_p7": (0, "bc3623d44247a3dcc85fabb2c4a00611c8c678b0efd4438459337e1ef044bc75",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "measure_p7_json": (0, "1ce0ba48039d2fcbf31816c487fbb2b5f2753e646b35d42620e274995b032ce7",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "measure_p5": (0, "3c626bcffdbe2e81fd35e745ebab8bc291357210d284a52fec366ba1ecb36c8f",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "measure_p11_json": (0, "0788f9da140be5399d063b171ed8cf2461ef9e07977b50dd09f7dec4055c3021",
                         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "measure_p13": (0, "496edae4a1c557055274bc20174f1a61cd834fa6062b877c7302f1ae203eecb3",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify_two_rows": (0, "af9d586e53ded0e065af37fc1b35fc25a5e25c7221eb065defef26a09c0d3de2",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand_all_linear": (0, "360618467214c06e0cf29b12fa89096386e3e564340ff87fe7e21fc1374bf18d",
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand_dense_file": (0, "62c42e4d4b79f08cc81d5fcb0087a9d7b90310502cd816bd0140e0a7d85e0cea",
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand_rational_file": (0, "6296885d4187cd6eaab9069fbe042a07fc0775933e52c7ba0aab2a6df12158f5",
                             "bb364a5551a182f24d6064a5796aa3ede01af3910e708b22e6996aea193a97eb"),
    "expand_constant_root_last": (0, "49119ae11ea736fb80fbb83d461b32a80bf950cc148e5f36188729fdbbcf26df",
                                  "42eb83d698c806d3b3a71fc09122e6c08416e70fc9450d9f0711103f958dcfdd"),
    "expand_constant_root_step": (0, "49119ae11ea736fb80fbb83d461b32a80bf950cc148e5f36188729fdbbcf26df",
                                  "42eb83d698c806d3b3a71fc09122e6c08416e70fc9450d9f0711103f958dcfdd"),
    "expand_abort_last": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                          "c15440e87610f327d7b76abffe33d0d1b24b48654c1f9e13c1313e09643a44df"),
    "expand_abort_step": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                          "c15440e87610f327d7b76abffe33d0d1b24b48654c1f9e13c1313e09643a44df"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(name: str, directory: Path) -> tuple:
    """The exit code and the stdout and stderr digests of one run."""
    files = {}
    for key, text in (("dense", DENSE_EQUATION), ("rational", RATIONAL_EQUATION),
                      ("constant_root", CONSTANT_ROOT_EQUATION), ("abort", ABORT_EQUATION)):
        files[key] = directory / f"{key}.txt"
        files[key].write_text(text)
    argv = [arg.format(**files) for arg in RUNS[name]]
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
