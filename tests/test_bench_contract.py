"""The benchmark's layer spans still fit the package.

``bench/workloads.py`` times every function that its ``LAYERS`` table names
by looking it up with ``getattr`` and wrapping it where ``simulator`` and
``gradcheck`` call it; ``sample``, ``encode`` and ``clamp_params_backward``
get wrappers of fixed arity that also count work.  A renamed layer function
or a changed positional signature breaks the traced benchmark, so this test
installs those spans around a short training run and one pass of the
gradient checks, and restores the originals afterwards.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from paramcrop import affine, gradcheck, simulator
from paramcrop.simulator import TrainConfig, run_training

BENCH = Path(__file__).resolve().parent.parent / "bench"

SMALL = TrainConfig(
    steps=2,
    batch_size=3,
    input_shape=(2, 8, 10, 10),
    crop_shape=(4, 5, 5),
    embed_dim=8,
    conv_channels=4,
    noise_dim=6,
    hidden_dim=8,
    probe_samples=8,
    seed=11,
)


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``spans`` modules, imported from ``bench/``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return workloads, spans


def test_every_layer_name_exists(bench):
    workloads, _ = bench
    for module, names in workloads.LAYERS.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_layer_spans_wrap_a_training_run_and_the_checks(bench):
    workloads, spans = bench
    originals = {(caller, name): getattr(caller, name)
                 for caller in workloads.CALLERS for name in dir(caller)
                 if callable(getattr(caller, name))}
    tracer, patcher = spans.Tracer(), spans.Patcher()
    workloads.install_layer_spans(patcher, tracer)
    try:
        assert simulator.transform_grid is not affine.transform_grid
        result = run_training(SMALL)
        checks = gradcheck.run_all(num_seeds=1)
    finally:
        patcher.restore()
    assert {key: getattr(*key) for key in originals} == originals
    assert len(result.records) == SMALL.steps
    assert all(check.passed for check in checks)
    # A paramcrop run calls every layer but the baseline placements.
    called = {span.name for span in tracer.spans}
    layers = {f"{m.__name__.rsplit('.', 1)[1]}.{fn}"
              for m, fns in workloads.LAYERS.items() for fn in fns}
    assert layers - called == {"simulator.baseline_params"}
    counts = tracer.counts()
    for key in ("sampler.sample.points", "contrastive.encode.flop",
                "affine.clamp_params_backward.entries"):
        assert counts[key] > 0, key
