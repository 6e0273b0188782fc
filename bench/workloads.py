"""The four benchmark workloads and the correctness checks on their outputs.

Every workload is a closed loop of *units*: the benchmark calls the unit's
main entry point, waits for it, checks what it returned and starts the next.
A unit's inputs come from the workload seed alone: each workload cycles a
fixed pool of inputs (config seeds, or gradcheck base seeds) in an order drawn
from the seed.

* ``train_adversarial`` / ``train_random``: one ``simulator.run_training``
  call at the default shapes for :data:`STEPS_PER_RUN` steps.
* ``gradcheck``: one ``gradcheck.run_all`` call over all seven families for
  one base seed of :data:`GRADCHECK_BASE_SEEDS`.
* ``sweep_detach_threads``: one ``cli.main(["sweep-detach", ...])`` call over
  detach bounds 0.0 and 0.5 on two threads.

Call timing goes through :mod:`spans`, by replacing names in the modules
that look them up; see :meth:`Workload.install`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import measure
from envinfo import import_paramcrop
from spans import STEP, Patcher, Tracer, clock

paramcrop = import_paramcrop()
from paramcrop import affine, cli, contrastive, gradcheck, paramgen, sampler, simulator  # noqa: E402

MAIN = "main"

STEPS_PER_RUN = 20
# run_all's cost depends on the base seed by up to 40%, so every run draws
# from the same pool rather than from seeds derived from the workload seed.
GRADCHECK_BASE_SEEDS = (0, 1, 2, 3)
SWEEP_BOUNDS = (0.0, 0.5)
SWEEP_THREADS = 2

# Trajectory tolerance: loose enough for reordered float sums, tight enough
# that any change of behaviour shows within STEPS_PER_RUN steps.
TRAJECTORY_RTOL = 1e-6
TRAJECTORY_ATOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Layer module -> public functions timed, as named in the layer metrics.
LAYERS = {
    simulator: ("make_synthetic_batch", "crop_cube", "st_iou", "center_manhattan",
                "baseline_params"),
    affine: ("clamp_params", "build_affine_matrix", "transform_grid", "apply_early_stop",
             "transform_grid_backward", "clamp_params_backward"),
    sampler: ("sample", "sample_backward"),
    contrastive: ("encode", "encode_backward", "nt_xent", "nt_xent_backward"),
    paramgen: ("sample_noise", "mlp_forward", "mlp_backward", "update_weights"),
}
# Modules whose global names the training step and the check families call.
CALLERS = (simulator, gradcheck)

GRADCHECK_FAMILIES = tuple(gradcheck.CHECK_FAMILIES)
CLI_SPANS = ("cli.run_training", "cli.write_csv", "cli.write_manifest")


def layer_span_names() -> list[str]:
    names = [f"{m.__name__.rsplit('.', 1)[1]}.{fn}" for m, fns in LAYERS.items() for fn in fns]
    names += [f"gradcheck.{family}" for family in GRADCHECK_FAMILIES]
    return names + list(CLI_SPANS)


@dataclass
class Outcome:
    """Operations attempted and failed in one unit, and its named checks."""

    attempted: int
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


class FirstStep(Exception):
    """Raised by the set-up probe when the first step is about to start."""


def first_step_time() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def compare_csv(actual: str, expected: str) -> tuple[bool, str]:
    """Cell-by-cell comparison of two metrics CSVs at the trajectory tolerance."""
    got, want = actual.splitlines(), expected.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return False, f"{len(got)} lines vs {len(want)} expected, or header differs"
    worst = 0.0
    for row, (line_a, line_b) in enumerate(zip(got[1:], want[1:]), start=1):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if len(cells_a) != len(cells_b) or cells_a[0] != cells_b[0]:
            return False, f"row {row}: step or column count differs"
        for a_text, b_text in zip(cells_a[1:], cells_b[1:]):
            a, b = float(a_text), float(b_text)
            if math.isnan(a) and math.isnan(b):
                continue
            err = abs(a - b)
            if not err <= TRAJECTORY_ATOL + TRAJECTORY_RTOL * abs(b):
                return False, f"row {row}: {a_text} vs {b_text}"
            worst = max(worst, err)
    return True, f"max abs deviation {worst:.3g}"


def load_reference() -> dict:
    data = json.loads(REFERENCE_FILE.read_text())
    if data["steps"] != STEPS_PER_RUN:
        raise SystemExit(
            f"benchmark: {REFERENCE_FILE.name} holds {data['steps']}-step runs, "
            f"workloads run {STEPS_PER_RUN}; rerun record_reference.py"
        )
    return data


class Workload:
    name = ""
    threads = 1  # pool threads the package runs the workload on

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def install(self, patcher: Patcher, tracer: Tracer, layers: bool) -> None:
        """Put step boundaries, and with *layers* every layer span, in place."""
        if layers:
            install_layer_spans(patcher, tracer)

    def run_unit(self, tracer: Tracer, index: int) -> Outcome:
        raise NotImplementedError

    def warm_up(self, tracer: Tracer) -> Outcome:
        return self.run_unit(tracer, 0)

    def reach_first_step(self) -> float:
        """In a fresh process: set up as a unit does, stop at its first step."""
        raise NotImplementedError


def install_layer_spans(patcher: Patcher, tracer: Tracer) -> None:
    """Span every layer function where its callers look it up, plus counts."""
    for module, fns in LAYERS.items():
        short = module.__name__.rsplit(".", 1)[1]
        for fn in fns:
            original = getattr(module, fn)
            for caller in CALLERS:
                if getattr(caller, fn, None) is original:
                    patcher.patch(caller, fn, lambda f, n=f"{short}.{fn}": tracer.wrap(n, f))
    for caller in CALLERS:
        if hasattr(caller, "sample"):
            patcher.patch(caller, "sample", lambda f: _count_sample(tracer, f))
        if hasattr(caller, "encode"):
            patcher.patch(caller, "encode", lambda f: _count_encode(tracer, f))
        if hasattr(caller, "clamp_params_backward"):
            patcher.patch(caller, "clamp_params_backward", lambda f: _count_mask(tracer, f))


def _count_sample(tracer: Tracer, fn):
    def counted(video, grid):
        tracer.count("sampler.sample.points", measure.sample_points(grid.shape))
        tracer.count("sampler.sample.bytes", measure.sample_bytes(video.shape, grid.shape))
        return fn(video, grid)

    return counted


def _count_encode(tracer: Tracer, fn):
    def counted(video, enc):
        shape = (video.shape, enc.conv_weight.shape[0], enc.kernel, enc.stride, enc.embed_dim)
        tracer.count("contrastive.encode.flop", measure.encode_flop(*shape))
        tracer.count("contrastive.encode.bytes", measure.encode_bytes(*shape))
        return fn(video, enc)

    return counted


def _count_mask(tracer: Tracer, fn):
    def counted(grad_params, unit_params, bounds, mask):
        useful = int(np.count_nonzero(mask))
        tracer.count("affine.clamp_params_backward.unmasked", useful)
        tracer.count("affine.clamp_params_backward.entries", len(mask))
        key = f"affine.clamp_params_backward.unmasked@{bounds.detach_bound!r}"
        tracer.count(key, useful)
        tracer.count(key.replace(".unmasked@", ".entries@"), len(mask))
        return fn(grad_params, unit_params, bounds, mask)

    return counted


def _failed_unit(attempted: int, what: str) -> Outcome:
    return Outcome(attempted, attempted, [("runs_without_error", False, what)])


class _Trajectories:
    """Reference and byte-identical-rerun checks on rendered metrics CSVs."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.seen: dict[str, str] = {}

    def check(self, key: str, csv: str) -> list[tuple[str, bool, str]]:
        ok, detail = compare_csv(csv, self.reference[key])
        checks = [("reference_trajectory", ok, f"{key}: {detail}")]
        if key in self.seen:
            same = self.seen[key] == csv
            checks.append(("byte_identical_rerun", same, key))
        else:
            self.seen[key] = csv
        return checks


class TrainWorkload(Workload):
    """``run_training`` at the default shapes; one unit is one short run."""

    def __init__(self, name: str, strategy: str, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.name = name
        self.strategy = strategy
        ref = load_reference()
        self.config_seeds = _seed_order(ref["seeds"], seed)
        self.trajectories = _Trajectories(ref[name])

    def config(self, index: int):
        seed = self.config_seeds[index % len(self.config_seeds)]
        return simulator.TrainConfig(steps=STEPS_PER_RUN, seed=seed, strategy=self.strategy)

    def install(self, patcher: Patcher, tracer: Tracer, layers: bool) -> None:
        super().install(patcher, tracer, layers)
        patcher.patch(simulator, "make_synthetic_batch", lambda f: _step_boundary(tracer, f))

    def run_unit(self, tracer: Tracer, index: int) -> Outcome:
        cfg = self.config(index)
        try:
            with tracer.span(MAIN):
                result = simulator.run_training(cfg)
        except Exception:
            return _failed_unit(cfg.steps, traceback.format_exc(limit=3))
        checks = self.trajectories.check(str(cfg.seed), simulator.render_csv(result.records))
        ok = all(passed for _, passed, _ in checks)
        return Outcome(cfg.steps, 0 if ok else cfg.steps, checks)

    def reach_first_step(self) -> float:
        return _time_of_first_step(lambda: simulator.run_training(self.config(0)))


def _step_boundary(tracer: Tracer, fn):
    def boundary(*args, **kwargs):
        tracer.step_boundary()
        return fn(*args, **kwargs)

    return boundary


def _stop_at_first_step(*args, **kwargs):
    raise FirstStep(first_step_time())


def _time_of_first_step(call) -> float:
    """Run *call* until its first ``make_synthetic_batch``; return that time."""
    patcher = Patcher()
    patcher.patch(simulator, "make_synthetic_batch", lambda f: _stop_at_first_step)
    try:
        call()
    except FirstStep as stop:
        return stop.args[0]
    finally:
        patcher.restore()
    raise RuntimeError("the workload finished without a step")


def _seed_order(seeds: list[int], seed: int) -> list[int]:
    """The reference seeds in an order drawn from the workload seed."""
    order = np.random.default_rng(seed).permutation(len(seeds))
    return [seeds[i] for i in order]


class GradcheckWorkload(Workload):
    """``run_all`` over all seven families; a step is one family x seed instance."""

    name = "gradcheck"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.base_seeds = _seed_order(list(GRADCHECK_BASE_SEEDS), seed)

    def install(self, patcher: Patcher, tracer: Tracer, layers: bool) -> None:
        super().install(patcher, tracer, layers)
        families = gradcheck.CHECK_FAMILIES
        for family in GRADCHECK_FAMILIES:
            if layers:
                patcher.patch(families, family,
                              lambda f, n=f"gradcheck.{family}": tracer.wrap(n, f))
            patcher.patch(families, family, lambda f: tracer.wrap(STEP, f, step=True))

    def base_seed(self, index: int) -> int:
        return self.base_seeds[index % len(self.base_seeds)]

    def run_unit(self, tracer: Tracer, index: int) -> Outcome:
        base_seed = self.base_seed(index)
        attempted = len(GRADCHECK_FAMILIES)
        try:
            with tracer.span(MAIN):
                results = gradcheck.run_all(base_seed=base_seed, num_seeds=1)
        except Exception:
            return _failed_unit(attempted, traceback.format_exc(limit=3))
        checks = [
            (f"gradcheck_{r.name}_passed", r.passed,
             f"base_seed={base_seed} max_err={r.max_error:.3e} tol={r.tolerance:.0e}")
            for r in results
        ]
        failed = sum(not r.passed for r in results)
        return Outcome(len(results), failed, checks)

    def reach_first_step(self) -> float:
        return first_step_time()


class SweepWorkload(Workload):
    """``paramcrop sweep-detach`` through ``cli.main`` on two pool threads."""

    name = "sweep_detach_threads"
    threads = SWEEP_THREADS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # cli reads this on every multi-run command.
        os.environ["PARAMCROP_THREADS"] = str(SWEEP_THREADS)
        ref = load_reference()
        self.config_seeds = _seed_order(ref["seeds"], seed)
        self.trajectories = _Trajectories(
            {f"{s}@{b}": csv for s, by_bound in ref[self.name].items() for b, csv in by_bound.items()}
        )
        self.sweep_csvs: dict[int, str] = {}
        self.config_file = workdir / "sweep.conf"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_file.write_text(f"steps = {STEPS_PER_RUN}\n")
        self._results: dict[float, object] = {}
        self._lock = threading.Lock()
        self._pool_done = 0.0

    def argv(self, index: int, out: Path) -> list[str]:
        seed = self.config_seeds[index % len(self.config_seeds)]
        return ["sweep-detach", "--bounds", ",".join(repr(b) for b in SWEEP_BOUNDS),
                "--config", str(self.config_file), "--seed", str(seed), "--out", str(out)]

    def install(self, patcher: Patcher, tracer: Tracer, layers: bool) -> None:
        super().install(patcher, tracer, layers)
        patcher.patch(simulator, "make_synthetic_batch", lambda f: _step_boundary(tracer, f))
        # The span closes each pool thread's last step; the capture keeps the
        # run's records for the trajectory checks.
        patcher.patch(cli, "run_training", lambda f: tracer.wrap("cli.run_training", f))
        patcher.patch(cli, "run_training", lambda f: self._capture(tracer, f))
        if layers:
            patcher.patch(cli, "_run_many", lambda f: self._pool_end(f))
            patcher.patch(cli, "_write_manifest", lambda f: self._csv_write(tracer, f))

    def _capture(self, tracer: Tracer, fn):
        def run(cfg):
            cpu_start = time.thread_time()
            result = fn(cfg)
            tracer.count("cli.run_training.cpu_s", time.thread_time() - cpu_start)
            with self._lock:
                self._results[cfg.detach_bound] = result
            return result

        return run

    # cmd_sweep_detach writes sweep.csv inline between the pool and the
    # manifest, so its span runs from the pool's return to the manifest call.
    def _pool_end(self, fn):
        def run_many(configs):
            try:
                return fn(configs)
            finally:
                self._pool_done = clock()

        return run_many

    def _csv_write(self, tracer: Tracer, fn):
        def write_manifest(*args, **kwargs):
            tracer.add("cli.write_csv", self._pool_done, clock())
            return tracer.wrap("cli.write_manifest", fn)(*args, **kwargs)

        return write_manifest

    def run_unit(self, tracer: Tracer, index: int) -> Outcome:
        out = self.workdir / f"sweep-{index}"
        argv = self.argv(index, out)
        seed = int(argv[argv.index("--seed") + 1])
        attempted = STEPS_PER_RUN * len(SWEEP_BOUNDS)
        self._results.clear()
        try:
            with tracer.span(MAIN), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            sweep_csv = (out / "sweep.csv").read_text()
        except Exception:
            return _failed_unit(attempted, traceback.format_exc(limit=3))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if code != 0:
            return _failed_unit(attempted, f"cli.main exited {code}")
        checks, failed = [], 0
        for bound in SWEEP_BOUNDS:
            csv = simulator.render_csv(self._results[bound].records)
            run_checks = self.trajectories.check(f"{seed}@{bound!r}", csv)
            checks += run_checks
            if not all(passed for _, passed, _ in run_checks):
                failed += STEPS_PER_RUN
        if seed in self.sweep_csvs:
            same = self.sweep_csvs[seed] == sweep_csv
            checks.append(("byte_identical_rerun", same, f"{seed}: sweep.csv"))
            if not same:
                failed = attempted
        else:
            self.sweep_csvs[seed] = sweep_csv
        return Outcome(attempted, failed, checks)

    def reach_first_step(self) -> float:
        out = self.workdir / "first-step"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return _time_of_first_step(lambda: cli.main(self.argv(0, out)))
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = ("train_adversarial", "train_random", "gradcheck", "sweep_detach_threads")


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "train_adversarial":
        return TrainWorkload(name, "paramcrop", seed, workdir)
    if name == "train_random":
        return TrainWorkload(name, "random", seed, workdir)
    if name == "gradcheck":
        return GradcheckWorkload(seed, workdir)
    if name == "sweep_detach_threads":
        return SweepWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
