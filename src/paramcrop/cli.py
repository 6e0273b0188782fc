"""Command-line front end: gradcheck, train, compare, sweep-detach.

Configs are flat ``key = value`` text files (see TrainConfig for the keys).
The run commands share one path, ``cmd_run``: load ``--config``, expand the
list flag (one config per entry, parsed as a value of its field), run, and
only then create ``--out`` and write the command's files and a manifest
embedding the exact effective config; a failed run leaves no directory.
``_RUN_COMMANDS`` is the one table of what each command adds.  ``--config``
also reads a manifest, so it replays that run byte-for-byte with no other
flag (``compare`` and ``sweep-detach`` reuse the list it records).

Exit codes: 0 success, 2 config error, 3 numerical/training error, 4 I/O
or out-of-memory error.  The PARAMCROP_THREADS environment variable
(default 1) caps worker threads for the list commands, which reject a bad
value even for a one-entry list; ``train`` never reads it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericsError, ParamCropError
from .gradcheck import DEFAULT_NUM_SEEDS, DEFAULT_TOLERANCE, run_all, render_report
from .kv import format_kv, parse_kv
from .simulator import (
    CSV_HEADER,
    STRATEGIES,
    RunResult,
    TrainConfig,
    config_from_pairs,
    config_to_pairs,
    format_float,
    render_csv,
    run_training,
)

logger = logging.getLogger(__name__)


def _thread_count() -> int:
    raw = os.environ.get("PARAMCROP_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"PARAMCROP_THREADS: expected integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"PARAMCROP_THREADS: must be >= 1, got {n}")
    return n


def _run_many(configs: list[TrainConfig]) -> list[RunResult]:
    """Run several configs, optionally on a small thread pool."""
    workers = min(_thread_count(), len(configs))
    if workers <= 1:
        return [run_training(cfg) for cfg in configs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_training, configs))


def _load_run(args: argparse.Namespace) -> tuple[TrainConfig, list[TrainConfig], dict]:
    """``--config`` (a config or a run manifest) with ``--seed`` applied, one
    config per list-flag entry, and the list's manifest entry."""
    pairs: dict[str, str] = {}
    if args.config:
        try:
            pairs = parse_kv(Path(args.config).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text ({exc})") from exc
    # A manifest's run command is what tells it apart from a config file,
    # which may hold none of the manifest-only keys.
    config = pairs
    if pairs.get("command") in _RUN_COMMANDS:
        config = {k: v for k, v in pairs.items() if k not in _MANIFEST_ONLY_KEYS}
    cfg = config_from_pairs(config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    listing = _RUN_COMMANDS[args.command].listing
    if listing is None:
        return cfg, [cfg], {}
    key, field, default = listing
    # An unset list flag takes the list a manifest of this command records, or
    # its default (no other manifest holds the key; a config file is rejected).
    text = getattr(args, key)
    if text is None:
        text = pairs.get(key, default)
    configs = [config_from_pairs({field: entry}, base=cfg)
               for entry in text.split(",") if entry.strip()]
    if not configs:
        raise ConfigError(f"{key}: need at least one value")
    return cfg, configs, {key: ",".join(config_to_pairs(c)[field] for c in configs)}


def _summary(result: RunResult) -> list[str]:
    """A run's probe IoU and normalised distance, then their means over the
    last tenth of its log, formatted as CSV cells."""
    tail = result.records[-max(1, len(result.records) // 10):]
    return [format_float(v) for v in (result.probe_iou, result.probe_dist_norm,
                                      np.mean(tail["iou"]), np.mean(tail["dist_norm"]))]


# ---------------------------------------------------------------------------
# SVG plotting (no plotting dependency; a few polylines are all we need)
# ---------------------------------------------------------------------------


def render_svg(records: np.ndarray) -> str:
    """A run log's loss, overlap and distance as three stacked SVG panels."""
    total_steps = len(records)
    width, panel_h, pad = 640, 150, 40
    series = [(name, records[name]) for name in ("loss", "iou", "dist_norm")]
    height = pad + len(series) * (panel_h + pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    x0, x1 = pad + 30, width - pad
    for panel, (name, values) in enumerate(series):
        top = pad + panel * (panel_h + pad)
        bottom = top + panel_h
        pts = [(i, v) for i, v in enumerate(values) if np.isfinite(v)]
        if pts:
            lo = min(v for _, v in pts)
            hi = max(v for _, v in pts)
            span = (hi - lo) or 1.0
            coords = " ".join(
                f"{x0 + (x1 - x0) * (i / max(1, total_steps - 1)):.2f},"
                f"{bottom - panel_h * ((v - lo) / span):.2f}"
                for i, v in pts
            )
            parts.append(
                f'<polyline fill="none" stroke="black" points="{coords}"/>'
            )
            parts.append(
                f'<text x="{x0 - 5}" y="{bottom}" text-anchor="end">'
                f"{format_float(lo)}</text>"
            )
            parts.append(
                f'<text x="{x0 - 5}" y="{top + 10}" text-anchor="end">'
                f"{format_float(hi)}</text>"
            )
        parts.append(
            f'<rect x="{x0}" y="{top}" width="{x1 - x0}" height="{panel_h}" '
            f'fill="none" stroke="grey"/>'
        )
        parts.append(f'<text x="{x0}" y="{top - 5}">{name}</text>')
        parts.append(
            f'<text x="{x0}" y="{bottom + 15}" text-anchor="middle">0</text>'
        )
        parts.append(
            f'<text x="{x1}" y="{bottom + 15}" text-anchor="middle">'
            f"{total_steps}</text>"
        )
        parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{bottom + 28}" '
            f'text-anchor="middle">step</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_all(
        base_seed=args.seed,
        num_seeds=args.seeds,
        tolerance=args.tolerance,
    )
    sys.stdout.write(render_report(results))
    failed = [r for r in results if not r.passed]
    if failed:
        raise NumericsError(
            f"gradient check failed: {failed[0].name} "
            f"(max_err={failed[0].max_error:.3e} >= tol={failed[0].tolerance:.1e})"
        )
    return 0


def _write_manifest(out_dir: Path, command: str, cfg: TrainConfig,
                    extra: dict[str, object]) -> None:
    manifest = {"version": __version__, "command": command, **extra,
                **config_to_pairs(cfg)}
    (out_dir / "manifest.txt").write_text(format_kv(manifest))


def _train_files(args: argparse.Namespace, results: list[RunResult]):
    (result,) = results
    texts = {"metrics_csv": render_csv(result.records)}
    if args.plot:
        texts["plot_svg"] = render_svg(result.records)
    probe_iou, probe_dist, iou, dist = _summary(result)
    return texts, [f"probe iou={probe_iou} dist_norm={probe_dist}",
                   f"final iou={iou} dist_norm={dist}"]


def _compare_files(args: argparse.Namespace, results: list[RunResult]):
    lines = ["strategy," + CSV_HEADER]
    summary = []
    for result in results:
        lines.extend(f"{result.config.strategy},{row}"
                     for row in render_csv(result.records).splitlines()[1:])
        _, _, iou, dist = _summary(result)
        summary.append(f"{result.config.strategy}: final iou={iou} dist_norm={dist}")
    return {"compare_csv": "\n".join(lines) + "\n"}, summary


def _sweep_files(args: argparse.Namespace, results: list[RunResult]):
    lines = ["b_detach,probe_iou,probe_dist_norm,last_iou,last_dist_norm"]
    for result in results:
        bound = format_float(result.config.detach_bound)
        lines.append(",".join([bound, *_summary(result)]))
    return {"sweep_csv": "\n".join(lines) + "\n"}, []


@dataclass(frozen=True)
class _RunCommand:
    """What one run command adds to the shared run path."""

    help: str
    # Its own parser flags, as (flag, add_argument keywords).
    flags: tuple[tuple[str, dict], ...]
    # Manifest key -> file name of each file it may write; stdout names the
    # first, which it always writes.
    files: dict[str, str]
    # (args, results) -> (text per manifest key in ``files``, stdout lines).
    render: Callable[..., tuple[dict[str, str], list[str]]]
    # Its list flag, or None for a single run: the manifest key (the flag's
    # dest), the config field each entry sets, and the default.
    listing: tuple[str, str, str] | None = None


_RUN_COMMANDS = {
    "train": _RunCommand(
        "run one training simulation",
        (("--plot", {"action": "store_true",
                     "help": "also write an SVG plot of the metrics"}),
         ("--print-config", {"action": "store_true",
                             "help": "print the effective config and exit"})),
        {"metrics_csv": "metrics.csv", "plot_svg": "metrics.svg"}, _train_files),
    "compare": _RunCommand(
        "run several crop strategies under one seed",
        (("--strategies", {"help": "comma-separated strategy names "
                           "(default: a compare manifest's, else all five)"}),),
        {"compare_csv": "compare.csv"}, _compare_files,
        ("strategies", "strategy", ",".join(STRATEGIES))),
    "sweep-detach": _RunCommand(
        "run the same config across detach bounds",
        (("--bounds", {"dest": "detach_bounds", "help": "comma-separated detach bounds "
                       "(default: a sweep-detach manifest's, else 0.0,0.2,0.5)"}),),
        {"sweep_csv": "sweep.csv"}, _sweep_files,
        ("detach_bounds", "detach_bound", "0.0,0.2,0.5")),
}
# A run manifest is a config plus these keys.
_MANIFEST_ONLY_KEYS = {
    "version", "command",
    *(key for command in _RUN_COMMANDS.values() for key in command.files),
    *(command.listing[0] for command in _RUN_COMMANDS.values() if command.listing),
}


def cmd_run(args: argparse.Namespace) -> int:
    command = _RUN_COMMANDS[args.command]
    cfg, configs, listed = _load_run(args)
    if getattr(args, "print_config", False):
        sys.stdout.write(format_kv(config_to_pairs(cfg)))
        return 0
    # A single run stays in this thread and never reads PARAMCROP_THREADS.
    results = _run_many(configs) if command.listing else [run_training(cfg)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts, lines = command.render(args, results)
    for key, text in texts.items():
        (out_dir / command.files[key]).write_text(text)
    _write_manifest(out_dir, args.command, cfg,
                    {**{key: command.files[key] for key in texts}, **listed})
    print(*lines, f"wrote {out_dir / next(iter(command.files.values()))}", sep="\n")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramcrop",
        description="Adversarial 3D crop-placement simulator and its "
        "gradient-check suite.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log per-run progress to stderr")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=DEFAULT_NUM_SEEDS,
                   help="independent random instances per family")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_gradcheck)

    for name, command in _RUN_COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config",
                       help="path to a key = value config file or a run manifest")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="paramcrop-out", help="output directory")
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except ParamCropError as exc:
        logger.error("numerical error: %s", exc)
        return 3
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return 4
    except MemoryError as exc:
        logger.error("out of memory: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
