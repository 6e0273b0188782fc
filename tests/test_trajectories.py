"""Pinned metric trajectories of short fixed-seed runs.

Each config below ran once and its ``metrics.csv`` text was stored under
``tests/data/``.  A run today must match it cell by cell at the benchmark's
trajectory tolerance, ``|a - b| <= 1e-9 + 1e-6 * |b|`` (NaN matches NaN).
The CSV keeps 9 significant digits, so a tighter relative bound would reject
a flip in the last printed digit caused by a reordered float sum.

Re-record (only for an intended change of behaviour) with::

    PYTHONPATH=src python tests/test_trajectories.py --record
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from paramcrop.simulator import TrainConfig, render_csv, run_training

DATA = Path(__file__).with_name("data")

ATOL = 1e-9
RTOL = 1e-6

BASE = TrainConfig(
    steps=8,
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

CONFIGS = {
    "paramcrop": BASE,
    "random": replace(BASE, strategy="random"),
    "flip_precrop": replace(BASE, random_flip=True, pre_crop=True),
    "detach_half": replace(BASE, detach_bound=0.5),
}


def _path(name: str) -> Path:
    return DATA / f"trajectory_{name}.csv"


def _mismatches(actual: str, expected: str) -> list[str]:
    got, want = actual.splitlines(), expected.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{len(got)} lines vs {len(want)}, or the header differs"]
    bad = []
    for row, (line_a, line_b) in enumerate(zip(got[1:], want[1:]), start=1):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if len(cells_a) != len(cells_b):
            bad.append(f"row {row}: column count differs")
            continue
        for col, (a_text, b_text) in enumerate(zip(cells_a, cells_b)):
            a, b = float(a_text), float(b_text)
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= ATOL + RTOL * abs(b):
                bad.append(f"row {row} col {col}: {a_text} vs {b_text}")
    return bad


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_matches_pinned_csv(name):
    actual = render_csv(run_training(CONFIGS[name]).records)
    assert _mismatches(actual, _path(name).read_text()) == []


def test_comparison_rejects_a_changed_cell():
    expected = _path("paramcrop").read_text()
    lines = expected.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-5))
    lines[1] = ",".join(cells)
    assert _mismatches("\n".join(lines) + "\n", expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_trajectories.py --record")
    DATA.mkdir(exist_ok=True)
    for key, cfg in CONFIGS.items():
        _path(key).write_text(render_csv(run_training(cfg).records))
        print(f"wrote {_path(key)}")
