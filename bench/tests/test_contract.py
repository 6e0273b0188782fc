"""BENCHMARK.json lists exactly the metrics and workloads run.py reports."""

import json
from pathlib import Path

import envinfo

envinfo.pin_blas_threads()

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    tracer = Tracer()
    with tracer.span(workloads.MAIN):
        tracer.step_boundary()
    metrics, _ = run.per_layer(tracer, [1.0], threads=1)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
