"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MF = run.import_library()


def _tier1_conftest():
    spec = importlib.util.spec_from_file_location(
        "tier1_conftest", run.ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_seed_is_the_tier1_corpus():
    ours = workloads.corpus_inputs(MF, workloads.DEFAULT_SEED)
    theirs = _tier1_conftest().build_corpus(500)
    assert [w.matrix.entries for w in ours] == [w.matrix.entries for w in theirs]


def test_inputs_follow_the_seed():
    for make in (workloads.corpus_inputs, workloads.ladder_inputs):
        a, b, c = make(MF, 1), make(MF, 1), make(MF, 2)
        assert [w.matrix.entries for w in a] == [w.matrix.entries for w in b]
        assert [w.matrix.entries for w in a] != [w.matrix.entries for w in c]


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_total_minus_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("m.leaf", lambda: _busy(0.01))

    def middle():
        _busy(0.01)
        leaf()
        leaf()

    outer = tracer.wrap("m.outer", tracer.wrap("m.middle", middle))
    outer()
    s = tracer.summary()
    assert {k: v["calls"] for k, v in s.items()} == {
        "m.leaf": 2, "m.middle": 1, "m.outer": 1,
    }
    assert s["m.leaf"]["self_s"] == s["m.leaf"]["total_s"] >= 0.02
    assert s["m.middle"]["self_s"] == pytest.approx(
        s["m.middle"]["total_s"] - s["m.leaf"]["total_s"], abs=1e-12
    )
    assert s["m.middle"]["self_s"] >= 0.01
    assert s["m.outer"]["self_s"] == pytest.approx(
        s["m.outer"]["total_s"] - s["m.middle"]["total_s"], abs=1e-12
    )
    assert tracer.calls_under("m.middle") == {"m.leaf": 2}
    assert tracer.calls_under("m.outer") == {"m.middle": 1, "m.leaf": 2}


def test_calls_are_charged_to_the_layer_called():
    # oracle binds torus.moment_eval under its own name; the call from
    # oracle.tangent_dim must still show up as torus.moment_eval.
    w = MF.torus.WeightMatrix.from_rows([[1, 0], [-1, 0], [0, 1]])
    point = MF.torus.smooth_witness(w, {1, 2})
    original = MF.oracle.moment_eval
    tracer = tracing.Tracer()
    with tracing.installed(tracer, vars(MF)):
        assert MF.oracle.moment_eval is not original
        MF.oracle.tangent_dim(w, point)
    assert MF.oracle.moment_eval is original is MF.torus.moment_eval
    assert tracer.calls_under("oracle.tangent_dim") == {"torus.moment_eval": 1}
    summary = tracer.summary()
    assert summary["oracle.tangent_dim"]["calls"] == 1
    assert summary["exactlin.rank_rows"]["calls"] == 0


def _first_pass(workload, inputs):
    return run.run_pass(MF, workload, inputs, run.library_caches(MF), keep_outputs=True)


def test_correct_outputs_pass_the_checks():
    workload = workloads.WORKLOADS["corpus"]
    inputs = workloads.corpus_inputs(MF, workloads.DEFAULT_SEED)[:40]
    passes = [_first_pass(workload, inputs), _first_pass(workload, inputs)]
    assert run.judge(MF, workload, inputs, passes) == (0, [])


def _corrupt(out, edit):
    rep, _ = out
    data = json.loads(rep.to_json())
    edit(data)
    bad = MF.cli.AnalysisReport.from_dict(data)
    return bad, bad.to_json()


def _flip_functional(data):
    cert = data["properties"]["stable"]["certificate"]
    cert["functional"] = [-v for v in cert["functional"]]


def _break_coefficient(data):
    cert = data["properties"]["stable"]["certificate"]
    cert["coefficients"][0] = "7/1"


def _drop_component(data):
    data["components"]["list"] = data["components"]["list"][1:]


@pytest.mark.parametrize(
    "rows, edit",
    [
        ([[1, 0], [0, 1]], _flip_functional),
        ([[1], [1], [-2]], _break_coefficient),
        ([[1, 0], [0, 1]], _drop_component),
    ],
)
def test_corrupted_report_is_a_failed_op(rows, edit):
    workload = workloads.WORKLOADS["corpus"]
    inputs = [MF.torus.WeightMatrix.from_rows(rows)]
    good = _first_pass(workload, inputs)
    bad_out = _corrupt(good.outputs[0], edit)
    bad = dataclasses.replace(
        good, outputs=[bad_out], fingerprints=[workload.fingerprint(bad_out)]
    )
    failed, problems = run.judge(MF, workload, inputs, [bad])
    assert failed == 1 and len(problems) == 1


def test_report_text_that_does_not_round_trip_is_a_failed_op():
    workload = workloads.WORKLOADS["corpus"]
    inputs = [MF.torus.WeightMatrix.from_rows([[1], [-1]])]
    good = _first_pass(workload, inputs)
    rep, text = good.outputs[0]
    bad = dataclasses.replace(good, outputs=[(rep, text.replace('"rank": 1', '"rank": 2'))])
    assert run.judge(MF, workload, inputs, [bad])[0] == 1


def test_later_pass_that_differs_is_a_failed_op():
    workload = workloads.WORKLOADS["corpus"]
    inputs = [MF.torus.WeightMatrix.from_rows([[1], [-1]])]
    first = _first_pass(workload, inputs)
    later = dataclasses.replace(first, outputs=[], fingerprints=["something else"])
    failed, problems = run.judge(MF, workload, inputs, [first, later])
    assert failed == 1 and "differs" in problems[0]


def test_refusal_is_a_failed_op_but_not_a_wrong_output():
    workload = workloads.WORKLOADS["ladder"]
    ladder = workloads.ladder_inputs(MF, workloads.DEFAULT_SEED)
    inputs = [w for w in ladder if w.n == 24][:1]
    first = _first_pass(workload, inputs)
    assert isinstance(first.outputs[0], run.Refused)
    assert run.judge(MF, workload, inputs, [first, first]) == (2, [])


def test_kac_check_catches_a_wrong_order():
    specs = workloads.kac_inputs(MF, 0)[0]
    out = workloads.kac_op(MF, specs)
    assert workloads.check_kac(MF, specs, out) is None
    out[0]["scan"]["hits"][0]["order"] += 1
    assert workloads.check_kac(MF, specs, out) is not None
