"""Smoke check of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs the harness end to end on small inputs of the same code paths,
checks that every metric named in BENCHMARK.json is emitted with its
unit, that a corrupted output is counted as failed, and that the harness
refuses to run without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _corrupt(name, rnd):
    out = rnd.outputs
    if name == "scan-k3":
        result = out[0]
        (sid, value), *rest = result.samples
        out[0] = dataclasses.replace(result, samples=((sid, value + 1), *rest))
    elif name == "scan-k5":
        result = out[0]
        out[0] = dataclasses.replace(result, samples=((result.samples[0][0], result.samples[0][1] + 1),))
    elif name == "sos2-k4":
        formulation, report, oracle, built, lp, js, back = out[0]
        eqs, facets = oracle
        out[0] = (formulation, report, (eqs, facets - {min(facets)}), built, lp, js, back)
    else:
        base, mod, recovered, graph, lp = out[0]
        out[0] = (base, mod, None, graph, lp)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_is_counted_as_failed(name):
    workload = workloads.TINY[name]
    inputs = workload.inputs(0, 0)
    rnd = workload.run(inputs, lambda item: None)
    assert not workload.check(inputs, rnd, 0, 0, compare_digests=False).failed
    _corrupt(name, rnd)
    assert workload.check(inputs, rnd, 0, 0, compare_digests=False).failed


def test_tracer_rebinds_every_importer_and_restores():
    import embform.polyhedra
    import embform.ratlin
    import embform.sos2

    original = embform.ratlin.scale_primitive
    trace = tracer.Tracer()
    trace.install()
    try:
        wrapped = embform.ratlin.scale_primitive
        assert wrapped is not original
        assert embform.sos2.scale_primitive is wrapped and embform.polyhedra.scale_primitive is wrapped
        with pytest.raises(AssertionError):
            tracer.assert_untraced()
        embform.sos2.canonical_form(embform.sos2.padberg(2).system)
    finally:
        trace.uninstall()
    assert tracer.assert_untraced() == []
    assert embform.sos2.scale_primitive is original
    summary = trace.summary()
    assert summary["sos2.canonical_form"]["calls"] == 1
    assert summary["ratlin.scale_primitive"]["calls"] > 0


def test_missing_public_name_is_reported_absent(monkeypatch):
    import embform.sos2

    monkeypatch.delattr(embform.sos2, "substitute")
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert tracer.assert_untraced() == ["sos2.substitute"]
    spec = [{"name": "sos2.substitute.self_s", "unit": "s"}]
    assert tracer.layer_metrics(trace.summary(), 1.0, {}, spec) == {"sos2.substitute.self_s": {"value": 0, "unit": "s"}}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "scan-k3", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
