from __future__ import annotations

import concurrent.futures
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypercf import PartialQuotients, cli, construction

GOLDEN_CFE_P7 = "cfe [2*t, 4*t, 5*t, 6*t, 6*t^13 + 2*t^11 + t^9 + 6*t^7, t, 4*t]"
GOLDEN_DEGREES_7 = "degrees [1, 1, 1, 1, 13, 1, 1]"
GOLDEN_LEADS_7 = "lead.coef. [2, 4, 5, 6, 6, 1, 4]"

# the reference output as published, with its original line wrapping
GOLDEN_DEGREES_65_WRAPPED = """degrees [1, 1, 1, 1, 13, 1, 1, 1, 1, 1, 1, 1, 1, 97, 1, 1, 1, 1
, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
, 1, 1, 1, 1, 685]"""
GOLDEN_LEADS_65_WRAPPED = """lead.coef. [2, 4, 5, 6, 6, 1, 4, 2, 4, 2, 4, 2, 2, 4, 5, 5, 3,
 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5,
 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3,
 5, 3, 5, 3, 6, 6]"""


def normalize(text: str) -> str:
    """Documented whitespace normalization: collapse whitespace runs to a
    single space and drop spaces before commas (undoes line wrapping)."""
    return re.sub(r"\s+", " ", text).replace(" ,", ",").strip()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestExpand:
    def test_reference_text_output(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--p", "7", "--u", "2,4,5", "--steps", "7"
        )
        assert code == 0
        assert out == [GOLDEN_CFE_P7, GOLDEN_DEGREES_7, GOLDEN_LEADS_7]

    def test_full_run_matches_wrapped_reference_lines(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--p", "7", "--u", "2,4,5", "--steps", "65"
        )
        assert code == 0
        assert normalize(out[1]) == normalize(GOLDEN_DEGREES_65_WRAPPED)
        assert normalize(out[2]) == normalize(GOLDEN_LEADS_65_WRAPPED)

    def test_even_p_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "4", "--u", "1,1,1", "--steps", "3")
        assert code == 2
        assert "p must be an odd prime" in err

    def test_steps_validated_before_work(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "7", "--u", "2,4,5", "--steps", "0")
        assert code == 2
        assert "steps must be >= 1" in err

    def test_zero_unit_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "5", "--u", "1,0,1", "--steps", "3")
        assert code == 2
        assert "nonzero" in err

    def test_missing_equation_selector(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "5", "--steps", "3")
        assert code == 2
        assert "exactly one of" in err

    @pytest.mark.parametrize(
        "sources",
        (
            ("--u", "2,4,5", "--u1", "1"),
            ("--u", "2,4,5", "--equation-file", "eq.txt"),
            ("--u1", "1", "--equation-file", "eq.txt"),
            ("--u", "2,4,5", "--u1", "1", "--equation-file", "eq.txt"),
        ),
    )
    def test_conflicting_equation_sources_rejected(self, capsys, tmp_path, sources):
        path = tmp_path / "eq.txt"
        path.write_text("0: 4 0 4\n1: 0 1\n")
        args = [str(path) if a == "eq.txt" else a for a in sources]
        code, out, err = run(capsys, "expand", "--p", "7", *args, "--steps", "3")
        assert code == 2 and out == []
        assert "exactly one of --u, --u1 or --equation-file" in err

    def test_mills_robbins_family(self, capsys):
        code, out, _ = run(capsys, "expand", "--p", "5", "--u1", "4", "--steps", "6")
        assert code == 0
        assert out[0] == "cfe [4*t, 4*t, 4*t, 4*t, 4*t, 4*t]"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--p", "7", "--u", "2,4,5", "--steps", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out[0])
        assert cli.render_json(payload) == out[0]
        assert payload["p"] == 7
        assert payload["u"] == [2, 4, 5]
        assert payload["degrees"] == [1, 1, 1, 1, 13, 1, 1]
        assert payload["leading_coefficients"] == [2, 4, 5, 6, 6, 1, 4]
        assert payload["partial_quotients"][0] == {"coeffs": [0, 2]}

    def test_equation_file(self, capsys, tmp_path):
        # t*x - (t^2 + 1): engine must reproduce the Euclid expansion [t, t]
        path = tmp_path / "eq.txt"
        path.write_text("# linear test equation\n0: 4 0 4\n1: 0 1\n")
        code, out, err = run(
            capsys, "expand", "--p", "5", "--equation-file", str(path),
            "--steps", "5",
        )
        assert code == 0
        assert out[0] == "cfe [t, t]"
        assert "rational root" in err

    def test_rational_end_on_the_last_step(self, capsys, tmp_path):
        # the same equation at two steps: its second quotient is the run's
        # last, which forms no tail and still finds the root rational
        path = tmp_path / "eq.txt"
        path.write_text("1: 0 1\n0: 4 0 4\n")
        code, out, err = run(
            capsys, "expand", "--p", "5", "--equation-file", str(path),
            "--steps", "2",
        )
        assert code == 0
        assert out[0] == "cfe [t, t]"
        assert "rational root reached after 2 quotients" in err

    def test_equation_file_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1: 1\n1: 2\n")
        code, _, err = run(
            capsys, "expand", "--p", "5", "--equation-file", str(path), "--steps", "2"
        )
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize(
        "text, message",
        (
            ("0: 4 0 4\n1 0 1\n", ":2: malformed line"),
            ("0: 4 x 4\n", ":1: malformed line"),
            ("1: 0 1\n-1: 1\n", ":2: negative x-power"),
            ("# no equation\n\n", ": no coefficients"),
        ),
        ids=["no-colon", "bad-residue", "negative-power", "empty"],
    )
    def test_bad_equation_file_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "eq.txt"
        path.write_text(text)
        code, out, err = run(
            capsys, "expand", "--p", "5", "--equation-file", str(path), "--steps", "2"
        )
        assert code == 2 and out == []
        assert f"error: {path}{message}" in err

    @pytest.mark.parametrize(
        "text", ("0: 4 0 4\n1 0 1\n", "0: 4 x 4\n", "x: 1\n", "0: 1.5\n"),
        ids=["no-colon", "bad-residue", "bad-power", "float-residue"],
    )
    def test_malformed_line_names_the_form(self, capsys, tmp_path, text):
        # the message names the line form, not Python's parsing error
        path = tmp_path / "eq.txt"
        path.write_text(text)
        code, _, err = run(
            capsys, "expand", "--p", "5", "--equation-file", str(path), "--steps", "2"
        )
        assert code == 2
        assert "malformed line (expected `i: c0 c1 ...`, all integers)" in err
        assert "unpack" not in err and "invalid literal" not in err

    @pytest.mark.parametrize(
        "u, message",
        (("1,2", "u must be three comma-separated residues"),
         ("1,x,2", "u components must be integers")),
    )
    def test_malformed_triple_exits_2(self, capsys, u, message):
        # rejected by argparse itself, which exits rather than returning
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--p", "7", "--u", u, "--steps", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestPattern:
    def test_matches_expand(self, capsys):
        code_a, out_a, _ = run(
            capsys, "pattern", "--p", "7", "--u", "2,4,5", "--steps", "20"
        )
        code_b, out_b, _ = run(
            capsys, "expand", "--p", "7", "--u", "2,4,5", "--steps", "20"
        )
        assert code_a == code_b == 0
        assert out_a == out_b


class TestVerify:
    def test_single_triple_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--u", "1,1,1", "--steps", "21")
        assert code == 0
        assert "verified" in out[0]

    def test_deep_p11_run_through_n4(self, capsys):
        # 1476 quotients, the last of degree 29281
        code, out, _ = run(
            capsys, "verify", "--p", "11", "--u", "3,10,5", "--steps", "1476"
        )
        assert code == 0
        assert out == [
            "p=11 u=(3, 10, 5) steps=1476: verified, residuals zero to order -67334"
        ]

    def test_alternate_r_convention_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "3", "--u", "1,1,1", "--steps", "8",
            "--r-convention", "tp",
        )
        assert code == 1
        assert "MISMATCH" in out[0]

    def test_grid_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "3", "--grid", "--steps", "10",
            "--format", "json", "--jobs", "2",
        )
        assert code == 0
        assert len(out) == 5
        for line in out:
            payload = json.loads(line)
            assert payload["verified"] is True
            assert cli.render_json(payload) == line

    def test_json_carries_mismatch_record(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "7", "--u", "2,4,5", "--steps", "65",
            "--r-convention", "tp", "--format", "json",
        )
        assert code == 1
        (payload,) = [json.loads(line) for line in out]
        assert payload["verified"] is False
        assert payload["match"] is False
        assert payload["steps"] == 65
        assert payload["engine_aborted"] is False
        assert isinstance(payload["first_mismatch"], int)
        assert 1 <= payload["first_mismatch"] <= 4

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_a_nonzero_residual_is_reported(self, capsys, monkeypatch, fmt):
        # the series route dissents: the streams match, and the equation
        # residual, one more at T^0 above its floor, is not zero
        real = construction.eval_at_series
        monkeypatch.setattr(construction, "eval_at_series", lambda P, s: real(P, s) + 1)
        code, out, _ = run(
            capsys, "verify", "--p", "7", "--u", "2,4,5", "--steps", "65", "--format", fmt
        )
        assert code == 1
        if fmt == "text":
            assert out == ["p=7 u=(2, 4, 5) steps=65: RESIDUAL NONZERO"]
        else:
            (payload,) = [json.loads(line) for line in out]
            assert payload["verified"] is False and payload["match"] is True

    def test_json_rows_match_text_rows(self, capsys):
        argv = ("verify", "--p", "5", "--grid", "--steps", "39")
        _, text, _ = run(capsys, *argv)
        _, rows, _ = run(capsys, *argv, "--format", "json")
        for line, row in zip(text, map(json.loads, rows), strict=True):
            assert row["match"] is True and row["first_mismatch"] is None
            assert line == (
                f"p={row['p']} u={tuple(row['u'])} steps={row['steps']}: verified, "
                f"residuals zero to order {row['residual_order']}"
            )

    def test_grid_without_committed_triples_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--p", "13", "--grid", "--steps", "10")
        assert code == 2 and out == []
        assert "no committed grid for p=13" in err

    def test_needs_parameters(self, capsys):
        code, _, err = run(capsys, "verify", "--p", "3", "--steps", "5")
        assert code == 2

    @pytest.mark.parametrize("steps", ("1", "4"))
    def test_steps_without_residuals_rejected(self, capsys, steps):
        # below five quotients no residual is computed, so nothing is certified
        code, out, err = run(
            capsys, "verify", "--p", "7", "--u", "2,4,5", "--steps", steps
        )
        assert code == 2 and out == []
        assert "verify steps must be >= 5" in err

    def test_five_steps_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "7", "--u", "2,4,5", "--steps", "5")
        assert code == 0
        assert out[0].startswith("p=7 u=(2, 4, 5) steps=5: verified")

    def test_jobs_capped_at_triples_and_cpus(self, capsys, monkeypatch):
        requested = []

        class FakePool:
            # records the pool size and runs the jobs inline
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # the pool module is imported by the command itself, only for --jobs > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        for cpus, want in ((64, 5), (2, 2)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            code, out, _ = run(
                capsys, "verify", "--p", "3", "--grid", "--steps", "10", "--jobs", "64"
            )
            assert code == 0 and len(out) == 5
            assert requested.pop() == want

    def test_import_leaves_out_the_process_pool(self):
        # a fresh interpreter: this one may hold concurrent.futures already
        code = (
            "import sys, hypercf.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"

    def test_parser_is_built_once_and_keeps_no_triples(self, capsys):
        # one parser serves every call: a second call's `--u` list starts
        # from the empty default, not from the triples of the first
        assert cli._build_parser() is cli._build_parser()
        for u in ("1,2,1", "2,2,2"):
            code, out, _ = run(capsys, "verify", "--p", "3", "--u", u, "--steps", "8")
            assert code == 0
            assert out == [f"p=3 u=({u.replace(',', ', ')}) steps=8: verified, "
                           "residuals zero to order -14"]
        assert cli._build_parser().parse_args(["verify", "--p", "3", "--steps", "5"]).u == []

    def test_jobs_below_one_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--p", "3", "--u", "1,1,1", "--steps", "5", "--jobs", "0"
        )
        assert code == 2
        assert "jobs must be >= 1" in err

    def test_no_order_option(self, capsys):
        # the certificate always reaches the convergent floor: an order of
        # the caller's could only make it shallower
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--p", "3", "--u", "1,1,1", "--steps", "21", "--order", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --order -1" in captured.err


class TestIdentities:
    @pytest.mark.parametrize("p", ("3", "13"))
    def test_pass(self, capsys, p):
        code, out, _ = run(capsys, "identities", "--p", p)
        assert code == 0
        assert all("ok" in line for line in out[1:])

    def test_json(self, capsys):
        code, out, _ = run(capsys, "identities", "--p", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out[0])
        assert payload["verified"] is True

    @pytest.mark.parametrize("count", ("0", "-3"))
    def test_vacuous_fib_count_rejected(self, capsys, count):
        code, out, err = run(capsys, "identities", "--p", "5", "--fib-count", count)
        assert code == 2 and out == []
        assert "fib-count must be >= 1" in err

    def test_fib_count_one_checked(self, capsys):
        code, out, _ = run(capsys, "identities", "--p", "5", "--fib-count", "1")
        assert code == 0
        assert out[-1] == "cf(f_n/f_(n-1)) = [t]*n for n <= 1: ok"


class TestFamilyBound:
    @pytest.mark.parametrize("p", ("65537", "2147483647"))
    @pytest.mark.parametrize(
        "argv",
        (
            ("expand", "--u", "2,4,5", "--steps", "5"),
            ("expand", "--u1", "1", "--steps", "5"),
            ("verify", "--u", "2,4,5", "--steps", "5"),
            ("identities",),
        ),
    )
    def test_refused_at_once(self, capsys, p, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--p", p, *argv[1:])
        assert code == 2 and out == []
        assert "p must be below 2^16 = 65536" in err
        assert time.perf_counter() - start < 1.0


class TestMeasure:
    def test_closed_forms_text(self, capsys):
        code, out, _ = run(capsys, "measure", "--p", "7", "--k", "2")
        assert code == 0
        assert "n_k=5" in out[1]
        assert "s_k=4" in out[1]
        assert "nu = 6" in out[-1]

    def test_with_profile_json(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--p", "3", "--steps", "21", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out[0])
        assert payload["nu"] == {"num": 10, "den": 3}
        assert payload["big_positions"] == [[1, 5, 5], [2, 10, 17], [3, 21, 53]]
        assert payload["verified"] is True
        assert cli.render_json(payload) == out[0]

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_inconsistent_profile_exits_1(self, capsys, monkeypatch, fmt):
        # a stream whose third large quotient is one degree too high
        real = cli.pattern

        def off(spec, count):
            items = list(real(spec, count))
            return PartialQuotients(items[:-1] + [items[-1] * spec.field.T])

        monkeypatch.setattr(cli, "pattern", off)
        code, out, _ = run(
            capsys, "measure", "--p", "7", "--k", "3", "--steps", "65", "--format", fmt
        )
        assert code == 1
        if fmt == "text":
            assert out[-1] == ("observed big positions: [(1, 5, 13), (2, 14, 97), "
                               "(3, 65, 686)] (INCONSISTENT)")
        else:
            payload = json.loads(out[0])
            assert payload["verified"] is False
            assert payload["big_positions"][-1] == [3, 65, 686]

    def test_triple_not_accepted(self, capsys):
        # the profile's degrees cannot depend on the triple
        with pytest.raises(SystemExit) as exc:
            cli.main(["measure", "--p", "5", "--steps", "40", "--u", "1,2,3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ("0", "-2"))
    def test_vacuous_k_rejected(self, capsys, k):
        code, out, err = run(capsys, "measure", "--p", "7", "--k", k)
        assert code == 2 and out == []
        assert "k must be >= 1" in err
