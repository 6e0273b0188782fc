"""Command-line front end: gradcheck, train, compare, sweep-detach.

Configs are flat ``key = value`` text files (see TrainConfig for the keys);
every run directory receives a manifest embedding the exact effective config,
and ``--from-manifest`` replays a manifest to reproduce a run byte-for-byte.

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

# Keys a run manifest carries on top of the config itself.
_MANIFEST_ONLY_KEYS = {
    "version", "command", "metrics_csv", "plot_svg", "compare_csv",
    "sweep_csv", "strategies", "detach_bounds",
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
    manifest_path = getattr(args, "from_manifest", None)
    path = manifest_path or getattr(args, "config", None)
    pairs: dict[str, str] = {}
    if path:
        try:
            pairs = parse_kv(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    if manifest_path:
        pairs = {k: v for k, v in pairs.items() if k not in _MANIFEST_ONLY_KEYS}
    cfg = config_from_pairs(pairs)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _tail_means(records: np.ndarray) -> tuple[float, float]:
    """Mean IoU and normalised distance over the last tenth of a run's log."""
    tail = records[-max(1, len(records) // 10):]
    return float(np.mean(tail["iou"])), float(np.mean(tail["dist_norm"]))


# ---------------------------------------------------------------------------
# SVG plotting (no plotting dependency; a few polylines are all we need)
# ---------------------------------------------------------------------------


def render_svg(records: np.ndarray, total_steps: int) -> str:
    """A run log's loss, overlap and distance as three stacked SVG panels."""
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
        base_seed=args.seed if args.seed is not None else 0,
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_training(cfg)
    (out_dir / "metrics.csv").write_text(render_csv(result.records))
    extra: dict[str, object] = {"metrics_csv": "metrics.csv"}
    if args.plot:
        (out_dir / "metrics.svg").write_text(
            render_svg(result.records, cfg.steps)
        )
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
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ConfigError("--strategies: need at least one strategy name")
    configs = [replace(cfg, strategy=s) for s in strategies]  # validates names
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_many(configs)
    lines = ["strategy," + CSV_HEADER]
    for strategy, result in zip(strategies, results):
        lines.extend(f"{strategy},{row}"
                     for row in render_csv(result.records).splitlines()[1:])
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(
        out_dir, "compare", cfg,
        {"compare_csv": "compare.csv", "strategies": ",".join(strategies)},
    )
    for strategy, result in zip(strategies, results):
        iou, dist = _tail_means(result.records)
        print(
            f"{strategy}: final iou={format_float(iou)} "
            f"dist_norm={format_float(dist)}"
        )
    print(f"wrote {out_dir / 'compare.csv'}")
    return 0


def cmd_sweep_detach(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        bounds = [float(b) for b in args.bounds.split(",") if b.strip()]
    except ValueError as exc:
        raise ConfigError(f"--bounds: expected comma-separated floats: {exc}")
    if not bounds:
        raise ConfigError("--bounds: need at least one value")
    configs = [replace(cfg, detach_bound=b) for b in bounds]  # validates range
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_many(configs)
    lines = ["b_detach,probe_iou,probe_dist_norm,last_iou,last_dist_norm"]
    for bound, result in zip(bounds, results):
        iou, dist = _tail_means(result.records)
        lines.append(
            ",".join(
                [
                    format_float(bound),
                    format_float(result.probe_iou),
                    format_float(result.probe_dist_norm),
                    format_float(iou),
                    format_float(dist),
                ]
            )
        )
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(
        out_dir, "sweep-detach", cfg,
        {"sweep_csv": "sweep.csv",
         "detach_bounds": ",".join(format_float(b) for b in bounds)},
    )
    print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
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
    p.add_argument("--from-manifest",
                   help="re-run the exact config recorded in a run manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare",
                       help="run several crop strategies under one seed")
    _add_run_flags(p)
    p.add_argument("--strategies", default="paramcrop,random,simple,hard,manual",
                   help="comma-separated strategy names")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-detach",
                       help="run the same config across detach bounds")
    _add_run_flags(p)
    p.add_argument("--bounds", default="0.0,0.2,0.5",
                   help="comma-separated detach bounds")
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
