"""paramcrop benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures end-to-end metrics with only step
boundaries and main calls timed.  With ``--trace 1`` it measures the same
workload untraced for half the time, then with every layer function spanned
for the other half, and reports per-layer metrics plus the tracing overhead.
Lines before the last print every metric with its unit, every correctness
check and the environment; the last line is one JSON object.  See README.md.
"""

from __future__ import annotations

import envinfo

envinfo.pin_blas_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402
from spans import STEP, Patcher, Tracer, clock  # noqa: E402
from workloads import MAIN, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TAIL_Q = 0.95
MAX_OVERRUN_S = 60
ENCLOSING_SPANS = (MAIN,) + workloads.CLI_SPANS

# The metrics BENCHMARK.json gates.  The shared host the benchmark runs on
# drifts in speed over minutes, which moves every mean and median of a run by
# more than the largest bound; the step tail moves least (see README.md).
# The other end-to-end metrics are printed but not gated.
END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
PRINTED_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Interpreter start to first step, in fresh processes, SETUP_REPEATS times."""
    samples = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
               str(workdir / f"probe-{k}")]
        started = workloads.first_step_time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return samples


@contextlib.contextmanager
def instrumented(wl, layers: bool):
    """A fresh tracer with *wl*'s spans installed; the originals come back after."""
    patcher, tracer = Patcher(), Tracer()
    wl.install(patcher, tracer, layers)
    try:
        yield tracer
    finally:
        patcher.restore()


def run_phase(wl, seconds: float, layers: bool,
              min_steps: int = 0) -> tuple[Tracer, list[Outcome]]:
    """Run units back to back until *seconds* pass and *min_steps* steps ended."""
    with instrumented(wl, layers) as tracer:
        outcomes: list[Outcome] = []
        start = clock()
        while True:
            outcomes.append(wl.run_unit(tracer, len(outcomes)))
            elapsed = clock() - start
            if elapsed >= seconds:
                steps = sum(s.name == STEP for s in tracer.spans)
                # A program too slow to reach min_steps stops a minute late,
                # and the tail percentile then refuses to report.
                if steps >= min_steps or elapsed >= seconds + MAX_OVERRUN_S:
                    return tracer, outcomes


def main_walls(tracer: Tracer) -> list[float]:
    return [s.duration for s in tracer.spans if s.name == MAIN]


def end_to_end(tracer: Tracer, setup: list[float]) -> dict[str, float]:
    walls = main_walls(tracer)
    step_ms = [1e3 * s.duration for s in tracer.spans if s.name == STEP]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(walls),
        "steps_per_s": len(step_ms) / sum(walls),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p95": measure.tail_percentile(step_ms, TAIL_Q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, untraced_walls: list[float], threads: int):
    """Per-layer metrics {name: (value, unit)} and lines for the report only."""
    # Layer functions count inside steps only; the cli spans and the main
    # call enclose steps, so their self time is the work between steps.
    table, steps, step_wall = measure.layer_table(tracer.spans)
    in_step, _, _ = measure.layer_table([s for s in tracer.spans if s.step >= 0])
    counts = tracer.counts()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, tuple[float, str]] = {}

    def row(name):
        return (table if name in ENCLOSING_SPANS else in_step).get(name, empty)

    for name in workloads.layer_span_names() + [STEP, MAIN]:
        r = row(name)
        out[f"{name}.calls_per_step"] = (r["calls"] / steps, "count")
        out[f"{name}.self_ms_per_step"] = (1e3 * r["self_s"] / steps, "ms")
        out[f"{name}.share"] = (r["self_s"] / step_wall, "frac")
    del out[f"{STEP}.calls_per_step"], out[f"{MAIN}.calls_per_step"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["sampler.sample.points_per_s"] = (
        ratio(counts["sampler.sample.points"], row("sampler.sample")["total_s"]), "1/s")
    out["contrastive.encode.gflop_per_s"] = (
        ratio(counts["contrastive.encode.flop"] / 1e9, row("contrastive.encode")["total_s"]),
        "GFLOP/s")
    out["affine.clamp_params_backward.unmasked_frac"] = (
        ratio(counts["affine.clamp_params_backward.unmasked"],
              counts["affine.clamp_params_backward.entries"]), "frac")
    out["contrastive.encode_backward.grad_video_used_frac"] = (
        ratio(row("sampler.sample_backward")["calls"], row("contrastive.encode_backward")["calls"]),
        "frac")
    walls = main_walls(tracer)
    out["cli.pool_efficiency"] = (
        ratio(counts["cli.run_training.cpu_s"], threads * sum(walls)), "frac")
    for family in workloads.GRADCHECK_FAMILIES:
        out[f"gradcheck.{family}.s"] = (row(f"gradcheck.{family}")["total_s"] / len(walls), "s")
    overhead = statistics.mean(walls) - statistics.mean(untraced_walls)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / statistics.mean(untraced_walls), "frac")

    notes = [f"traced steps: {steps}, traced main calls: {len(walls)}, "
             f"untraced main calls: {len(untraced_walls)}"]
    for key in sorted(counts):
        if key.startswith("affine.clamp_params_backward.unmasked@"):
            bound = key.split("@", 1)[1]
            entries = counts[f"affine.clamp_params_backward.entries@{bound}"]
            notes.append(
                f"affine.clamp_params_backward.unmasked_frac[detach_bound={bound}] = "
                f"{ratio(counts[key], entries):.6g} frac"
            )
    for key, unit in (("contrastive.encode.flop", "FLOP"), ("contrastive.encode.bytes", "B"),
                      ("sampler.sample.points", "points"), ("sampler.sample.bytes", "B")):
        name = key.rsplit(".", 1)[0]
        calls = row(name)["calls"]
        if calls:
            notes.append(f"{key}_per_call = {counts[key] / calls:.6g} {unit} (computed from shapes)")
    if counts["contrastive.encode.bytes"]:
        notes.append(
            f"contrastive.encode.flop_per_byte = "
            f"{counts['contrastive.encode.flop'] / counts['contrastive.encode.bytes']:.6g} "
            f"(computed from shapes)")
    return out, notes


def summarise_checks(outcomes: list[Outcome]) -> list[str]:
    tally: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    failures = []
    for o in outcomes:
        for name, passed, detail in o.checks:
            tally[name][0] += passed
            tally[name][1] += 1
            if not passed:
                failures.append(f"check {name} FAILED: {detail}")
    lines = [f"check {name}: {ok}/{total} pass" for name, (ok, total) in sorted(tally.items())]
    return lines + failures


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    wl = workloads.make(args.workload, args.seed, workdir)
    env = envinfo.environment()
    lines = [f"env {k} = {v}" for k, v in env.items()]
    lines.append(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
                 f"trace={args.trace}")

    setup = measure_setup(args.workload, args.seed, workdir) if args.trace == 0 else []
    with instrumented(wl, layers=False) as tracer:
        outcomes = [wl.warm_up(tracer)]
    if args.trace == 0:
        tracer, timed = run_phase(wl, args.seconds, layers=False,
                                  min_steps=measure.min_samples(TAIL_Q))
        outcomes += timed
        measured = end_to_end(tracer, setup)
        metrics = {k: (measured[k], unit) for k, unit in END_TO_END_UNITS.items()}
        report = {**metrics, **{k: (measured[k], u) for k, u in PRINTED_UNITS.items()}}
        if args.workload == "gradcheck":
            report["gradcheck_instances_per_s"] = (measured["steps_per_s"], "1/s")
        n_steps = sum(s.name == STEP for s in tracer.spans)
        lines.append(f"samples: {n_steps} steps, {len(main_walls(tracer))} main calls, "
                     f"{len(setup)} set-ups")
    else:
        half = args.seconds / 2
        plain, plain_outcomes = run_phase(wl, half, layers=False)
        tracer, traced_outcomes = run_phase(wl, half, layers=True)
        outcomes += plain_outcomes + traced_outcomes
        metrics, notes = per_layer(tracer, main_walls(plain), wl.threads)
        report = dict(metrics)
        lines += notes
        tracer.dump(OUT / f"spans-{args.workload}.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace == 0:
        report["fail_frac"] = (failed / attempted, "frac")
    lines += [f"metric {k} = {v:.6g} {u}" for k, (v, u) in report.items()]
    lines += summarise_checks(outcomes)
    result = {
        "correct": failed == 0 and all(passed for o in outcomes for _, passed, _ in o.checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "args": vars(args), "report": lines, **result}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
