"""Command-line front end: gradcheck, train, compare, sweep-detach.

Configs are flat ``key = value`` text files (see TrainConfig for the keys);
every run directory receives a manifest embedding the exact effective config,
and ``--config`` also reads a manifest, so it replays that run byte-for-byte
with no other flag (``compare`` and ``sweep-detach`` reuse its list).  Each
entry of a list flag is parsed as a config value of its field, and the
manifest records the list as the config would write it.
A run directory is created only once the runs have returned: a failed run
leaves none, and an unwritable ``--out`` exits 4 after the runs.

Exit codes: 0 success, 2 config error, 3 numerical/training error, 4 I/O
or out-of-memory error.  The PARAMCROP_THREADS environment variable
(default 1) caps worker threads for multi-run commands.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericsError, ParamCropError
from .gradcheck import run_all, render_report
from .kv import format_kv, parse_kv
from .simulator import (
    CSV_HEADER,
    RunResult,
    TrainConfig,
    config_from_pairs,
    config_to_pairs,
    format_float,
    render_csv,
    run_training,
)

logger = logging.getLogger(__name__)

# A run manifest is a config plus the keys below; its command, one of these,
# is what tells it apart from a config file.
_MANIFEST_COMMANDS = ("train", "compare", "sweep-detach")
_MANIFEST_ONLY_KEYS = {
    "version", "command", "metrics_csv", "plot_svg", "compare_csv",
    "sweep_csv", "strategies", "detach_bounds",
}
# A multi-run command's list flag: its manifest key (the flag's dest), the
# config field each entry sets, and its default.
_LIST_FLAGS = {
    "compare": ("strategies", "strategy", "paramcrop,random,simple,hard,manual"),
    "sweep-detach": ("detach_bounds", "detach_bound", "0.0,0.2,0.5"),
}


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


def _load_config(args: argparse.Namespace) -> TrainConfig:
    """The ``--config`` file (a config or a run manifest) with ``--seed`` applied."""
    pairs: dict[str, str] = {}
    if args.config:
        try:
            pairs = parse_kv(Path(args.config).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text ({exc})") from exc
    # An unset list flag takes the list a manifest of this command records, or
    # its default (no other manifest holds the key; a config file is rejected).
    if args.command in _LIST_FLAGS:
        key, _, default = _LIST_FLAGS[args.command]
        if getattr(args, key) is None:
            setattr(args, key, pairs.get(key, default))
    if pairs.get("command") in _MANIFEST_COMMANDS:
        pairs = {k: v for k, v in pairs.items() if k not in _MANIFEST_ONLY_KEYS}
    cfg = config_from_pairs(pairs)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _list_configs(args: argparse.Namespace, cfg: TrainConfig):
    """One config per entry of the command's list flag, and its manifest entry."""
    key, field, _ = _LIST_FLAGS[args.command]
    configs = [config_from_pairs({field: text}, base=cfg)
               for text in getattr(args, key).split(",") if text.strip()]
    if not configs:
        raise ConfigError(f"{key}: need at least one value")
    return configs, {key: ",".join(config_to_pairs(c)[field] for c in configs)}


def _tail_means(records: np.ndarray) -> tuple[float, float]:
    """Mean IoU and normalised distance over the last tenth of a run's log."""
    tail = records[-max(1, len(records) // 10):]
    return float(np.mean(tail["iou"])), float(np.mean(tail["dist_norm"]))


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
    manifest: dict[str, object] = {"version": __version__, "command": command}
    manifest.update(extra)
    manifest.update(config_to_pairs(cfg))
    (out_dir / "manifest.txt").write_text(format_kv(manifest))


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.print_config:
        sys.stdout.write(format_kv(config_to_pairs(cfg)))
        return 0
    result = run_training(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(render_csv(result.records))
    extra: dict[str, object] = {"metrics_csv": "metrics.csv"}
    if args.plot:
        (out_dir / "metrics.svg").write_text(render_svg(result.records))
        extra["plot_svg"] = "metrics.svg"
    _write_manifest(out_dir, "train", cfg, extra)
    iou, dist = _tail_means(result.records)
    print(
        f"probe iou={format_float(result.probe_iou)} "
        f"dist_norm={format_float(result.probe_dist_norm)}"
    )
    print(f"final iou={format_float(iou)} dist_norm={format_float(dist)}")
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    configs, listed = _list_configs(args, cfg)
    results = _run_many(configs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["strategy," + CSV_HEADER]
    for result in results:
        lines.extend(f"{result.config.strategy},{row}"
                     for row in render_csv(result.records).splitlines()[1:])
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, "compare", cfg, {"compare_csv": "compare.csv", **listed})
    for result in results:
        iou, dist = _tail_means(result.records)
        print(
            f"{result.config.strategy}: final iou={format_float(iou)} "
            f"dist_norm={format_float(dist)}"
        )
    print(f"wrote {out_dir / 'compare.csv'}")
    return 0


def cmd_sweep_detach(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    configs, listed = _list_configs(args, cfg)
    results = _run_many(configs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["b_detach,probe_iou,probe_dist_norm,last_iou,last_dist_norm"]
    for result in results:
        iou, dist = _tail_means(result.records)
        lines.append(
            ",".join(
                [
                    format_float(result.config.detach_bound),
                    format_float(result.probe_iou),
                    format_float(result.probe_dist_norm),
                    format_float(iou),
                    format_float(dist),
                ]
            )
        )
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, "sweep-detach", cfg, {"sweep_csv": "sweep.csv", **listed})
    print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config",
                   help="path to a key = value config file or a run manifest")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default="paramcrop-out", help="output directory")


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
    p.add_argument("--seeds", type=int, default=20,
                   help="independent random instances per family")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="run one training simulation")
    _add_run_flags(p)
    p.add_argument("--plot", action="store_true",
                   help="also write an SVG plot of the metrics")
    p.add_argument("--print-config", action="store_true",
                   help="print the effective config and exit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare",
                       help="run several crop strategies under one seed")
    _add_run_flags(p)
    p.add_argument("--strategies", help="comma-separated strategy names "
                   "(default: a compare manifest's, else all five)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-detach",
                       help="run the same config across detach bounds")
    _add_run_flags(p)
    p.add_argument("--bounds", dest="detach_bounds", help="comma-separated detach "
                   "bounds (default: a sweep-detach manifest's, else 0.0,0.2,0.5)")
    p.set_defaults(func=cmd_sweep_detach)
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
