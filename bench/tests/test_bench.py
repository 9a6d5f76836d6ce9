"""Tests of the benchmark itself, on tiny inputs (p = 3).

    python3 -m pytest -q bench/tests

Each known-answer check must pass the program's real output and reject
an output perturbed to be wrong; the tracer must leave results unchanged
and account for the root span's whole duration.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402  (imports hypercf from the checkout's src)
from hypercf import LaurentSeries, Poly, PrimeField, construction, convergent_validity_floor  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

SMALL = {"p": 3, "steps": 21}


def test_engine_check_rejects_a_changed_quotient():
    inp = workloads.setup_engine(5, **SMALL)
    out = workloads.body_engine(inp)
    good = workloads.check_engine(inp, out)
    assert (good.attempted, good.failed) == (21, 0)
    assert good.cert_depth == -convergent_validity_floor(
        construction.pattern(inp["spec"], 21))

    code, text = out
    payload = json.loads(text)
    coeffs = payload["partial_quotients"][7]["coeffs"]
    coeffs[0] = (coeffs[0] + 1) % 3
    bad = workloads.check_engine(inp, (code, json.dumps(payload)))
    assert bad.failed == 1
    assert bad.cert_depth < good.cert_depth
    assert workloads.check_engine(inp, (2, text)).failed == 21
    assert workloads.check_engine(inp, None).failed == 21


def test_certify_check_rejects_a_shallower_floor_and_a_nonzero_residual():
    spec = construction.build_spec(PrimeField(3), workloads.draw_triple(5, 3))
    report = construction.verify_pattern(spec, 21)
    floors = {"tail": report.tail_relation_residual.floor,
              "equation": report.equation_residual.floor}
    inp = workloads.setup_certify(5, floors=floors, **SMALL)
    out = workloads.body_certify(inp)
    good = workloads.check_certify(inp, out)
    assert (good.attempted, good.failed) == (2, 0)
    assert good.cert_depth == min(-f for f in floors.values())

    field = spec.field
    shallow = dict(out, tail=LaurentSeries.zero(field, floors["tail"] + 10))
    assert workloads.check_certify(inp, shallow).failed == 1
    nonzero = dict(out, equation=LaurentSeries.from_terms(
        field, {floors["equation"] + 1: 1}, floors["equation"]))
    assert workloads.check_certify(inp, nonzero).failed == 1
    assert workloads.check_certify(inp, None).failed == 2


def test_grid_check_rejects_a_verified_control_and_a_shallower_order():
    inp = workloads.setup_grid(0, primes=(3,))
    out = workloads.body_grid(inp)
    good = workloads.check_grid(inp, out)
    assert (good.attempted, good.failed) == (6, 0)
    assert good.cert_depth == 5 * 176

    says_yes = dict(out, control=(0, "p=7 u=(2, 4, 5) steps=65: verified, "
                                     "residuals zero to order -1700"))
    assert workloads.check_grid(inp, says_yes).failed == 1

    code, text = out["grid"][3]
    rows = [json.loads(line) for line in text.splitlines()]
    rows[2]["residual_order"] = -100
    shallow = dict(out, grid={3: (code, "\n".join(json.dumps(r) for r in rows))})
    assert workloads.check_grid(inp, shallow).failed == 1
    assert workloads.check_grid(inp, dict(out, grid={3: (1, text)})).failed == 5


def test_self_times_sum_to_the_root_span_and_results_are_unchanged():
    original = Poly.__dict__["__mul__"]
    inp = workloads.setup_certify(5, floors={"tail": 0, "equation": 0}, **SMALL)
    engine = workloads.setup_engine(5, **SMALL)
    tracer = Tracer("test")
    with tracer.installed(), tracer.span("bench.body"):
        residuals = workloads.body_certify(inp)
        out = workloads.body_engine(engine)
    assert Poly.__dict__["__mul__"] is original
    assert out == workloads.body_engine(engine)
    assert all(r.is_zero_to_floor for r in residuals.values())

    stats = aggregate(tracer.spans)
    name, start, end, parent, _, _ = tracer.spans[0]
    assert (name, parent) == ("bench.body", -1)
    assert math.isclose(sum(s["self_s"] for s in stats.values()), end - start,
                        rel_tol=1e-9, abs_tol=1e-9)
    assert stats["expansion.expand"]["calls"] == 1
    assert stats["cf.cf_to_series"]["calls"] == 2
    assert stats["algebra.mul"]["coeff_ops"] > 0


def test_benchmark_json_matches_what_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)

    tracer = Tracer("test")
    with tracer.installed(), tracer.span("bench.body"):
        workloads.body_engine(workloads.setup_engine(5, **SMALL))
    values = worker.layer_values(tracer.spans, {})
    layer_names = {m["name"] for m in spec["per_layer"]} - set(run.RUN_LEVEL)
    assert layer_names <= set(values)
    assert set(run.RUN_LEVEL) <= {m["name"] for m in spec["per_layer"]}
    assert values["expansion.quotients"] == 21


def test_reference_computation_is_a_true_product():
    full = np.convolve(reference._A, reference._B) % 7
    assert np.array_equal(reference._karatsuba(reference._A, reference._B), full)
    assert reference.reference_s() > 0


def test_run_exits_nonzero_without_printing_when_the_program_is_missing(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", BENCH / "no-checkout-here")
    code = run.main(["--workload", "engine_deep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
