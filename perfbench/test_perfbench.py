"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["local-sweep", "requests"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.inputs_digest(workload, 11)
    assert workloads.inputs_digest(workload, 11) == first
    assert workloads.inputs_digest(workload, 12) != first


def test_certify_inputs_ignore_the_seed():
    assert workloads.inputs_digest("certify", 1) == \
        workloads.inputs_digest("certify", 2)


def test_local_sweep_structures_never_repeat():
    ops = workloads.first_ops(workloads.local_stream(3), 400)
    docs = [json.dumps(op.doc, sort_keys=True) for op in ops]
    assert len(set(docs)) == len(docs)


def _run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


# Ops of a smoke run with --seconds 1: the two smallest certify cases, one
# local-sweep round, three rounds of ten requests.
SMOKE_OPS = {"certify": 2, "local-sweep": 184, "requests": 30}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    notes, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == SMOKE_OPS[workload]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(notes)
    assert "# latency_tail_ms " in text
    assert "# fail_ratio " in text and " ratio (" in text
    assert '"blas_threads"' in text and '"nproc"' in text

    notes, result = _run(workload, 1)
    assert result["attempted"] == SMOKE_OPS[workload]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "tracing overhead" in "\n".join(notes)


def _targets():
    out = [(importlib.import_module(mod), attr)
           for mod, attr, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS]
    from frameopt.model import FrameAssembly
    return out + [(FrameAssembly, "__init__")]


def test_tracer_restores_every_attribute():
    targets = _targets()
    before = [owner.__dict__[attr] for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            during = [owner.__dict__[attr] for owner, attr in targets]
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("leave the block early")
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


def test_tracer_records_nested_spans_with_self_time():
    from frameopt.analysis import compliance
    from frameopt.problems import cantilever
    import frameopt.local

    with tracing.Tracer() as tracer:
        tracer.op = 0
        frameopt.local.compliance(cantilever(3), [0.03, 0.03, 0.03])
        tracer.op = None
        compliance(cantilever(3), [0.03, 0.03, 0.03])  # outside an op
    names = [s[0] for s in tracer.spans]
    assert names == ["analysis.compliance", "model.assembly"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 0
    own = tracer.self_times()
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    assert 0.0 < own[0] < whole


def test_success_claim_breaking_the_volume_bound_is_wrong():
    from frameopt.cli import MethodResult
    from frameopt.problems import cantilever

    gs = cantilever(2)
    res = MethodResult("oc", "converged", 10.0, [0.2, 0.2], 0.0,
                       verified_compliance=10.0)
    out = workloads.Outcome()
    workloads.check_method_result(gs, res, out)
    assert out.failed and out.wrong

    res = MethodResult("nlp", "iter-limit", 10.0, [0.05, 0.05], 0.0)
    out = workloads.Outcome()
    workloads.check_method_result(gs, res, out)
    assert out.failed and not out.wrong
