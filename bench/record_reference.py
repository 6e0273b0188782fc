"""Write ``reference.json``: the metrics CSVs the training workloads must reproduce.

Run from the repository root on a commit whose behaviour is the reference:

    python3 bench/record_reference.py

Each entry is ``render_csv`` of a ``STEPS_PER_RUN``-step run at the default
shapes, keyed by workload, config seed and, for the sweep, detach bound.
"""

from __future__ import annotations

import json

import envinfo

envinfo.pin_blas_threads()

from workloads import REFERENCE_FILE, STEPS_PER_RUN, SWEEP_BOUNDS, simulator  # noqa: E402

SEEDS = list(range(8))


def record() -> dict:
    def csv(**overrides) -> str:
        cfg = simulator.TrainConfig(steps=STEPS_PER_RUN, **overrides)
        return simulator.render_csv(simulator.run_training(cfg).records)

    return {
        "steps": STEPS_PER_RUN,
        "seeds": SEEDS,
        "train_adversarial": {str(s): csv(seed=s, strategy="paramcrop") for s in SEEDS},
        "train_random": {str(s): csv(seed=s, strategy="random") for s in SEEDS},
        "sweep_detach_threads": {
            str(s): {repr(b): csv(seed=s, detach_bound=b) for b in SWEEP_BOUNDS}
            for s in SEEDS
        },
    }


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
