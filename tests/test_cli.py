"""End-to-end command-line tests (tiny configs; everything in-process except
one smoke test of the installed entry point)."""

from __future__ import annotations

import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paramcrop import gradcheck
from paramcrop.cli import main, render_svg
from paramcrop.errors import ConfigError
from paramcrop.kv import format_kv, parse_kv
from paramcrop.simulator import CSV_HEADER, RECORD_DTYPE, STRATEGIES, TrainConfig

FLOAT_FIELDS = [
    name for name, value in vars(TrainConfig()).items() if isinstance(value, float)
]

TINY_CONFIG = """\
# desk-scale smoke configuration
steps = 3
batch_size = 2
input_shape = 2x8x10x10
crop_shape = 4x5x5
embed_dim = 8
conv_channels = 4
noise_dim = 6
hidden_dim = 8
probe_samples = 8
seed = 5
"""


# Passes validation, but at a temperature of 1e-300 the first encoder update
# overflows the projection.
TINY_TEMPERATURE_CONFIG = {
    "steps": "2", "batch_size": "2", "input_shape": "2x3x5x4", "crop_shape": "3x3x3",
    "noise_dim": "1", "hidden_dim": "1", "embed_dim": "3", "conv_channels": "1",
    "probe_samples": "3", "temperature": "1e-300",
}

# Passes validation, but the first generator update overflows its weights, so
# the second step's generator logits are inf or NaN.
HUGE_CROPPER_LR_CONFIG = {
    "steps": "3", "batch_size": "2", "input_shape": "2x4x6x6", "crop_shape": "3x3x3",
    "cropper_lr": "1e300", "detach_bound": "0.0",
}

# Passes validation, but one input grid would need 10^15 float64 (x, y, t)
# triples; numpy refuses the request without touching memory.
UNALLOCATABLE_CLIP_CONFIG = (
    "input_shape = 1x100000x100000x100000\ncrop_shape = 3x3x3\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestKvFormat:
    def test_parse_basics(self):
        text = "a = 1\n\n# comment\nb=two words\n"
        assert parse_kv(text) == {"a": "1", "b": "two words"}

    def test_round_trip(self):
        pairs = {"alpha": "0.5", "name": "x y", "count": "7"}
        assert parse_kv(format_kv(pairs)) == pairs

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv("a = 1\nnot a pair\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv("= 3\n")


class TestTrain:
    def test_writes_metrics_and_manifest(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        csv_text = (out / "metrics.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3
        manifest = parse_kv((out / "manifest.txt").read_text())
        assert manifest["command"] == "train"
        assert manifest["steps"] == "3"
        assert manifest["metrics_csv"] == "metrics.csv"
        stdout = capsys.readouterr().out
        assert "probe iou=" in stdout
        assert "final iou=" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config_path),
                     "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(config_path),
                     "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == \
            (out_b / "metrics.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out_a)])
        main(["train", "--config", str(config_path), "--out", str(out_b),
              "--seed", "99"])
        assert (out_a / "metrics.csv").read_text() != \
            (out_b / "metrics.csv").read_text()
        manifest = parse_kv((out_b / "manifest.txt").read_text())
        assert manifest["seed"] == "99"

    def test_from_manifest_reproduces_run(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out_a)])
        code = main(["train", "--from-manifest", str(out_a / "manifest.txt"),
                     "--out", str(out_b)])
        assert code == 0
        assert (out_a / "metrics.csv").read_bytes() == \
            (out_b / "metrics.csv").read_bytes()

    def test_print_config_shows_effective_values(self, config_path, capsys):
        code = main(["train", "--config", str(config_path), "--print-config"])
        assert code == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["steps"] == "3"
        assert pairs["strategy"] == "paramcrop"
        assert "cropper_lr" in pairs

    def test_plot_writes_svg(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out),
              "--plot"])
        svg = (out / "metrics.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "dist_norm" in svg

    def test_defaults_used_without_config(self, capsys):
        code = main(["train", "--print-config"])
        assert code == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["steps"] == "2000"


class TestErrorPaths:
    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_factor = 9\n")
        assert main(["train", "--config", str(bad)]) == 2

    def test_invalid_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("steps = -5\n")
        assert main(["train", "--config", str(bad)]) == 2

    def test_missing_config_file_exits_4(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_unknown_strategy_exits_2(self, tmp_path, config_path):
        code = main(["compare", "--config", str(config_path),
                     "--out", str(tmp_path / "c"),
                     "--strategies", "paramcrop,teleport"])
        assert code == 2

    def test_bad_bounds_exit_2(self, tmp_path, config_path):
        code = main(["sweep-detach", "--config", str(config_path),
                     "--out", str(tmp_path / "s"), "--bounds", "0.0,wide"])
        assert code == 2
        code = main(["sweep-detach", "--config", str(config_path),
                     "--out", str(tmp_path / "s"), "--bounds", "0.9"])
        assert code == 2

    def test_underflowing_crop_volume_exits_2(self, tmp_path):
        # (2 * 1e-300)^2 underflows to 0, so the overlap metrics would
        # divide 0 by 0.
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "strategy = hard\nspatial_scale_min = 1e-300\n"
            "input_shape = 1x4x6x6\ncrop_shape = 3x3x3\nbatch_size = 2\n"
        )
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        assert not (tmp_path / "run").exists()

    def test_negative_seed_exits_2(self, tmp_path, config_path):
        code = main(["train", "--config", str(config_path), "--seed", "-1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_exits_2(self, tmp_path, config_path, field, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_path.read_text() + f"{field} = {value}\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        assert not (tmp_path / "run").exists()

    def test_overflowing_embedding_exits_3(self, tmp_path):
        # At this temperature the first encoder update overflows the
        # projection; the run used to log loss ln 3 from zero embeddings.
        bad = tmp_path / "bad.cfg"
        bad.write_text(format_kv(TINY_TEMPERATURE_CONFIG))
        with np.errstate(over="ignore"):
            code = main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 3

    @pytest.mark.parametrize(
        "pairs", [TINY_TEMPERATURE_CONFIG, HUGE_CROPPER_LR_CONFIG],
        ids=["embedding_norm", "generator_logits"],
    )
    def test_overflow_exits_3_without_runtime_warnings(self, tmp_path, pairs):
        path = tmp_path / "bad.cfg"
        path.write_text(format_kv(pairs))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("flag", ["--config", "--from-manifest"])
    def test_undecodable_config_exits_2(self, tmp_path, flag, caplog):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xffsteps = 3\n")
        code = main(["train", flag, str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        assert not (tmp_path / "run").exists()
        assert str(bad) in caplog.text

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["sweep-detach", "--bounds", "0.0,0.5"],
    ], ids=["train", "sweep-detach"])
    def test_unallocatable_clip_exits_4(self, tmp_path, argv, monkeypatch, caplog):
        monkeypatch.setenv("PARAMCROP_THREADS", "2")
        path = tmp_path / "huge.cfg"
        path.write_text(UNALLOCATABLE_CLIP_CONFIG)
        code = main([*argv, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 4
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split(":")[0] for m in messages] == ["out of memory"]

    def test_bad_thread_env_exits_2(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("PARAMCROP_THREADS", "zero")
        code = main(["compare", "--config", str(config_path),
                     "--out", str(tmp_path / "c"),
                     "--strategies", "simple,hard"])
        assert code == 2


class TestCompare:
    def test_writes_combined_csv(self, tmp_path, config_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(config_path),
                     "--out", str(out), "--strategies", "simple,hard"])
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "strategy," + CSV_HEADER
        assert len(lines) == 1 + 2 * 3
        assert lines[1].startswith("simple,0,")
        assert lines[4].startswith("hard,0,")
        manifest = parse_kv((out / "manifest.txt").read_text())
        assert manifest["strategies"] == "simple,hard"
        assert "simple: final iou=" in capsys.readouterr().out

    def test_thread_pool_matches_serial(self, tmp_path, config_path,
                                        monkeypatch):
        serial, pooled = tmp_path / "s", tmp_path / "p"
        main(["compare", "--config", str(config_path), "--out", str(serial),
              "--strategies", "simple,random"])
        monkeypatch.setenv("PARAMCROP_THREADS", "2")
        main(["compare", "--config", str(config_path), "--out", str(pooled),
              "--strategies", "simple,random"])
        assert (serial / "compare.csv").read_bytes() == \
            (pooled / "compare.csv").read_bytes()


class TestSweepDetach:
    def test_writes_summary_rows(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        code = main(["sweep-detach", "--config", str(config_path),
                     "--out", str(out), "--bounds", "0.0,0.5"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "b_detach,probe_iou,probe_dist_norm,last_iou,last_dist_norm"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
        assert lines[2].startswith("0.5,")


TWENTY_STEP_CONFIG = TINY_CONFIG.replace("steps = 3\n", "steps = 20\n")


def _train_outputs(tmp_path, capsys, name: str, overrides: str):
    """``train``'s metrics.csv lines and stdout lines for one override set."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(TWENTY_STEP_CONFIG + overrides)
    out = tmp_path / name
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    return (out / "metrics.csv").read_text().splitlines(), stdout.splitlines()


class TestWritersAgreeWithTrain:
    """compare.csv and sweep.csv restate the run logs that ``train`` writes."""

    def test_compare_rows_are_train_rows(self, tmp_path, capsys):
        path = tmp_path / "base.cfg"
        path.write_text(TWENTY_STEP_CONFIG)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "cmp"),
                     "--strategies", ",".join(STRATEGIES)]) == 0
        expected = ["strategy," + CSV_HEADER]
        for strategy in STRATEGIES:
            metrics, _ = _train_outputs(tmp_path, capsys, strategy,
                                        f"strategy = {strategy}\n")
            expected.extend(f"{strategy},{row}" for row in metrics[1:])
        assert (tmp_path / "cmp" / "compare.csv").read_text().splitlines() == expected

    def test_sweep_cells_are_train_summaries(self, tmp_path, capsys):
        bounds = ["0", "0.2", "0.5"]
        path = tmp_path / "base.cfg"
        path.write_text(TWENTY_STEP_CONFIG)
        assert main(["sweep-detach", "--config", str(path), "--out",
                     str(tmp_path / "sweep"), "--bounds", ",".join(bounds)]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(bounds)
        for bound, row in zip(bounds, rows):
            _, stdout = _train_outputs(tmp_path, capsys, f"detach-{bound}",
                                       f"detach_bound = {bound}\n")
            probe, final = stdout[0].split(), stdout[1].split()
            assert probe[0] == "probe" and final[0] == "final"
            summary = [cell.split("=")[1] for cell in probe[1:] + final[1:]]
            assert row.split(",") == [bound, *summary]


class TestGradcheckCommand:
    def test_single_seed_passes(self, capsys):
        code = main(["gradcheck", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_unreachable_tolerance_exits_3(self, capsys):
        code = main(["gradcheck", "--seeds", "1", "--tolerance", "1e-18"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_failed_rebuild_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck, "_encoder_instance", lambda rng: None)
        assert main(["gradcheck", "--seeds", "1"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [
        ["--seeds", "0"],
        ["--seeds", "-1"],
        ["--seed", "-1"],
        ["--tolerance", "nan"],
        ["--tolerance", "inf"],
        ["--tolerance", "-1"],
        ["--tolerance", "0"],
    ])
    def test_bad_arguments_exit_2(self, flags, capsys):
        assert main(["gradcheck", "--seeds", "1", *flags]) == 2
        assert capsys.readouterr().out == ""


_CONFIG_KEYS = [f.name for f in fields(TrainConfig)]
_config_values = st.one_of(
    st.text(),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "no", "random", "2x8x10x10", "4x5x5", "0.5"]),
)


def _texts(*values) -> st.SearchStrategy[str]:
    return st.sampled_from([str(v) for v in values])


# Configs that pass or fail validation at the edges of each range, on shapes
# small enough that a one- or two-step run costs milliseconds.
_EDGE_CONFIGS = st.fixed_dictionaries(
    {
        "steps": _texts(1, 2),
        "batch_size": _texts(1, 2),
        "input_shape": _texts("1x4x6x6", "2x3x5x4"),
        "crop_shape": _texts("3x3x3"),
        "noise_dim": _texts(1, 3),
        "hidden_dim": _texts(1, 3),
        "embed_dim": _texts(1, 3),
        "conv_channels": _texts(1, 2),
        "probe_samples": _texts(1, 3),
    },
    optional={
        "strategy": st.sampled_from(STRATEGIES),
        "spatial_scale_min": _texts(5e-324, 1e-300, 1e-160, 1e-12, 0.5, 1.0),
        "spatial_scale_max": _texts(1e-300, 0.5, 1.0),
        "temporal_scale_min": _texts(5e-324, 1e-300, 1e-12, 0.5, 1.0),
        "temporal_scale_max": _texts(1e-12, 1.0),
        "angle_min": _texts(-3.2, -0.5, 0.0),
        "angle_max": _texts(0.0, 0.5, 3.2),
        "detach_bound": _texts(0.0, 0.5),
        "random_flip": _texts("true", "false"),
        "pre_crop": _texts("true", "false"),
        "baseline_jitter": _texts(0.0, 0.5),
        "manual_breakpoint": _texts(0.0, 0.999),
        "cropper_lr": _texts(0.05, 1e300),
        "temperature": _texts(1e-300, 0.1),
    },
)


class TestConfigProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pairs=st.dictionaries(
        st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(min_size=1)),
        _config_values, max_size=8,
    ))
    def test_any_text_config_exits_0_or_2(self, tmp_path_factory, pairs):
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_text(format_kv(pairs), encoding="utf-8")
        assert main(["train", "--config", str(path), "--print-config"]) in (0, 2)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(pairs=_EDGE_CONFIGS)
    @example(pairs={
        "strategy": "hard", "spatial_scale_min": "1e-300", "steps": "2",
        "input_shape": "1x4x6x6", "crop_shape": "3x3x3", "batch_size": "2",
    })
    @example(pairs=TINY_TEMPERATURE_CONFIG)
    def test_edge_config_runs_exit_0_2_or_3(self, tmp_path_factory, pairs):
        base = tmp_path_factory.getbasetemp()
        path = base / "edge.cfg"
        path.write_text(format_kv(pairs), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # An exception escaping main would reach the user as a traceback.
            code = main(["train", "--config", str(path), "--out", str(base / "edge")])
        assert code in (0, 2, 3)
        # A run that succeeds must not have overflowed on the way.
        if code == 0:
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSvg:
    def test_nan_rows_are_skipped(self):
        records = np.array([(0, 1.0, np.nan, np.nan, np.nan, *[0.5] * 6),
                            (1, 0.9, np.nan, np.nan, np.nan, *[0.5] * 6)],
                           dtype=RECORD_DTYPE)
        svg = render_svg(records, total_steps=2)
        assert svg.count("<polyline") == 1  # only the loss panel has points
        assert "nan" not in svg


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "paramcrop.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("paramcrop ")
