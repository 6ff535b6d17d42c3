import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warpmatch
from warpmatch import (Dataset, FeatureMatrix, SwimConfig, SynthConfig, TrainConfig, evaluate,
                       gen_task, init_adapter, save_adapter, save_dataset, save_matrix, swim)
from warpmatch.adapter import CKPT_MAGIC
from warpmatch.cli import _SCHEMA, _run_configs, load_run_config, main, resolved_config_lines
from warpmatch.errors import FormatError, ValidationError
from warpmatch.toy import TOY_E, TOY_S


def write_toy_csvs(directory) -> tuple[str, str]:
    """Write the toy pair as CSV files (for the command-line golden path)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, arr in (("toy_s.csv", TOY_S), ("toy_e.csv", TOY_E)):
        p = directory / name
        p.write_text("\n".join(",".join(str(int(v)) for v in row) for row in arr) + "\n",
                     encoding="utf-8")
        paths.append(str(p))
    return paths[0], paths[1]


@pytest.fixture(scope="module")
def toy_csvs(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    return write_toy_csvs(d)


class TestRunConfig:
    def test_defaults_then_file_then_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nseed = 5\nalpha = 2\n")
        cfg = load_run_config(f, overrides=["alpha=3"])
        assert cfg["seed"] == 5
        assert cfg["alpha"] == 3
        assert cfg["eps"] == 1e-3

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("mystery = 1\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            load_run_config(f)

    def test_bad_value_rejected(self):
        with pytest.raises(ValidationError, match="bad value"):
            load_run_config(None, overrides=["alpha=two"])
        for setting in ("eps=nan", "learning_rate=inf", "lr_decay=-inf", "warp=NaN"):
            key, value = setting.split("=")
            with pytest.raises(ValidationError, match=f"bad value '{value}' for key '{key}'"):
                load_run_config(None, overrides=[setting])

    def test_defaults_equal_library_defaults(self):
        cfg = load_run_config(None)
        assert _run_configs(cfg) == (SwimConfig(), SynthConfig())

    def test_non_utf8_file_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_bytes(b"seed = 5\n# \xff\n")
        with pytest.raises(FormatError, match="run.cfg: not UTF-8 text at byte offset 11"):
            load_run_config(f)

    def test_resolved_lines_cover_every_key(self):
        cfg = load_run_config(None)
        lines = resolved_config_lines(cfg)
        assert len(lines) == len(cfg)
        assert all(" = " in line for line in lines)


# Every scalar field of the three config dataclasses, as (class, field).
CONFIG_FIELDS = [(cls, f) for cls in (SwimConfig, TrainConfig, SynthConfig)
                 for f in dataclasses.fields(cls) if f.name != "train"]


def non_default(f):
    """A valid value other than ``f``'s default, as (text, parsed value)."""
    if f.name == "map_kind":
        return "identity", "identity"
    d = f.default
    if isinstance(d, int):
        value = d + 1
    else:
        value = d / 2 if d else 0.25
    return str(value), value


class TestConfigKeys:
    @pytest.mark.parametrize("cls, f", CONFIG_FIELDS,
                             ids=[f"{c.__name__}.{f.name}" for c, f in CONFIG_FIELDS])
    def test_every_config_field_is_a_key(self, cls, f):
        text, value = non_default(f)
        assert value != f.default
        cfg = load_run_config(None, overrides=[f"{f.name}={text}"])
        swim_cfg, synth_cfg = _run_configs(cfg)
        built = synth_cfg if cls is SynthConfig else swim_cfg
        target = built.train if cls is TrainConfig else built
        assert getattr(target, f.name) == value

    def test_keys_are_the_fields_plus_topk(self):
        assert set(_SCHEMA) == {f.name for _, f in CONFIG_FIELDS} | {"topk"}

    def test_shared_key_has_one_default(self):
        defaults = {}
        for _, f in CONFIG_FIELDS:
            defaults.setdefault(f.name, []).append(f.default)
        assert {name: d for name, d in defaults.items() if len(d) > 1} == {"seed": [0, 0]}

    def test_nested_train_is_not_a_key(self):
        with pytest.raises(ValidationError, match="unknown config key 'train'"):
            load_run_config(None, overrides=["train=1"])


class TestDpwCommands:
    def test_dist_prints_toy_value(self, toy_csvs, capsys):
        s, e = toy_csvs
        assert main(["dpw", "dist", s, e]) == 0
        assert capsys.readouterr().out.strip() == "654"

    def test_dist_same_file_prints_zero(self, toy_csvs, capsys):
        s, _ = toy_csvs
        assert main(["dpw", "dist", s, s]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_dist_channel_mismatch_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.fmx"
        b = tmp_path / "b.fmx"
        save_matrix(np.ones((2, 2, 2)), a)
        save_matrix(np.ones((2, 2, 3)), b)
        assert main(["dpw", "dist", str(a), str(b)]) == 2

    def test_dist_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["dpw", "dist", str(tmp_path / "no.fmx"), str(tmp_path / "no.fmx")]) == 1

    def test_dist_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fmx"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["dpw", "dist", str(bad), str(bad)]) == 1

    def test_align_identical_2x2_diagonal(self, tmp_path, capsys):
        m = tmp_path / "m.fmx"
        save_matrix(np.arange(4.0).reshape(2, 2, 1), m)
        out = tmp_path / "align.csv"
        assert main(["dpw", "align", str(m), str(m), "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert all(r["hs"] == r["he"] and r["ws"] == r["we"] for r in rows)

    def test_align_toy_costs_sum_to_distance(self, toy_csvs, tmp_path):
        s, e = toy_csvs
        out = tmp_path / "toy_align.csv"
        assert main(["dpw", "align", s, e, "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert sum(float(r["cost"]) for r in rows) == 654.0


class TestSynthGen:
    def test_writes_datasets_and_truth(self, tmp_path, capsys):
        out = tmp_path / "task"
        assert main(["synth", "gen", "--outdir", str(out),
                     "--set", "n_classes=3", "--set", "height=4",
                     "--set", "width=4", "--set", "channels=2"]) == 0
        assert (out / "seen.manifest").exists()
        assert (out / "emerging.manifest").exists()
        assert (out / "config.resolved").exists()
        truth = (out / "truth.csv").read_text().strip().splitlines()
        assert truth[0] == "emerging_class_id,seen_class_id"
        assert len(truth) == 4

    def test_writes_the_acceptance_task(self, tmp_path, capsys):
        from test_acceptance import TASK_CFG

        settings = dataclasses.asdict(TASK_CFG)
        out = tmp_path / "task"
        argv = ["synth", "gen", "--outdir", str(out)]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        assert main(argv) == 0
        assert load_run_config(out / "config.resolved") == {**load_run_config(None), **settings}

        expected = tmp_path / "expected"
        seen, emerging, truth = gen_task(TASK_CFG)
        save_dataset(seen, expected)
        save_dataset(emerging, expected)
        truth_lines = ["emerging_class_id,seen_class_id"]
        truth_lines += [f"{e},{s}" for e, s in sorted(truth.items())]
        (expected / "truth.csv").write_text("\n".join(truth_lines) + "\n")
        names = sorted(p.name for p in expected.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["config.resolved"])
        assert sum(name.endswith(".fmx") for name in names) == 2 * TASK_CFG.n_classes
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert main(["synth", "gen", "--outdir", str(tmp_path / "task"), "--set", "seed=-1"]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_task(tmp_path_factory):
    out = tmp_path_factory.mktemp("task")
    rc = main(["synth", "gen", "--outdir", str(out),
               "--set", "n_classes=4", "--set", "height=5", "--set", "width=5",
               "--set", "channels=3", "--set", "warp=0.3",
               "--set", "noise_std=0.01", "--set", "seed=2"])
    assert rc == 0
    return out


def run_args(task_dir, outdir, extra=()):
    return ["match", "run",
            "--seen", str(task_dir / "seen.manifest"),
            "--emerging", str(task_dir / "emerging.manifest"),
            "--outdir", str(outdir),
            "--set", "hidden=12", "--set", "epochs=30",
            "--set", "learning_rate=0.01", "--set", "max_sloma_iters=4",
            "--set", "alpha=2", "--set", "seed=6", *extra]


def eval_args(task_dir, adapter, outdir, extra=()):
    return ["eval", "topk",
            "--seen", str(task_dir / "seen.manifest"),
            "--emerging", str(task_dir / "emerging.manifest"),
            "--adapter", str(adapter), "--outdir", str(outdir), *extra]


class TestMatchRun:
    def test_produces_all_artifacts(self, small_task, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(small_task, out, ("--baseline", "knn"))) == 0
        for name in ("assignment.csv", "trace.csv", "sloma_trace.csv",
                     "adapter.lfa", "report.json", "report.csv",
                     "baseline_report.json", "baseline_report.csv",
                     "config.resolved"):
            assert (out / name).exists(), name
        assignment = (out / "assignment.csv").read_text().strip().splitlines()
        assert assignment[0] == "emerging_id,seen_id,rank1_distance"
        assert len(assignment) == 5
        doc = json.loads((out / "report.json").read_text())
        assert set(doc) == {"k", "top1", "top5", "items"}

    def test_rerun_is_byte_identical(self, small_task, tmp_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(run_args(small_task, out1, ("--baseline", "knn"))) == 0
        assert main(run_args(small_task, out2, ("--baseline", "knn"))) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert {"sloma_trace.csv", "report.csv", "baseline_report.json",
                "baseline_report.csv"} <= set(names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_config_resolved_replays(self, small_task, tmp_path, capsys):
        settings = ["batch_size=0", "lr_decay=1.5e-3", "eps=1e-4", "dropout_p=0.3"]
        first = tmp_path / "first"
        argv = run_args(small_task, first, [a for s in settings for a in ("--set", s)])
        assert main(argv) == 0
        resolved = first / "config.resolved"
        cfg = load_run_config(None, overrides=[a for flag, a in zip(argv, argv[1:])
                                               if flag == "--set"])
        replayed = load_run_config(resolved)
        assert replayed == cfg
        assert {k: type(v) for k, v in replayed.items()} == {k: type(v) for k, v in cfg.items()}

        second = tmp_path / "second"
        assert main(["match", "run", "--seen", str(small_task / "seen.manifest"),
                     "--emerging", str(small_task / "emerging.manifest"),
                     "--config", str(resolved), "--outdir", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_k_above_dataset_size_warns_once(self, small_task, tmp_path, capsys):
        with pytest.warns(UserWarning) as record:
            assert main(run_args(small_task, tmp_path / "run", ("--baseline", "knn"))) == 0
        clamps = [w for w in record if "clamping" in str(w.message)]
        assert len(clamps) == 1
        assert str(clamps[0].message) == "k=5 exceeds dataset size 4; clamping"

    @pytest.mark.parametrize("setting, message", [("topk=0", "k must be >= 1"),
                                                  ("max_sloma_iters=-3",
                                                   "max_sloma_iters must be >= 0"),
                                                  ("seed=-1", "seed must be >= 0")])
    def test_bad_setting_exits_2_before_training(self, small_task, tmp_path, capsys,
                                                 setting, message):
        out = tmp_path / "run"
        assert main(run_args(small_task, out, ("--set", setting))) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.resolved"]

    def test_builds_ceil_n_over_alpha_plus_one_matrices(self, small_task, tmp_path,
                                                        capsys, monkeypatch):
        """The report ranks run_swim's last matrix instead of building it again:
        N=4 and alpha=2 give 2 outer iterations and 3 distance matrices."""
        calls = []
        real = swim.dpw_distance_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(swim, "dpw_distance_matrix", counting)
        monkeypatch.setattr(evaluate, "dpw_distance_matrix", counting)
        assert main(run_args(small_task, tmp_path / "run", ("--baseline", "knn"))) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("setting", ["eps=nan", "learning_rate=nan", "lr_decay=inf"])
    def test_non_finite_setting_exit_2(self, small_task, tmp_path, capsys, setting):
        out = tmp_path / "run"
        assert main(run_args(small_task, out, ("--set", setting))) == 2
        key, value = setting.split("=")
        err = capsys.readouterr().err
        assert f"error: --set '{setting}': bad value '{value}' for key '{key}'" in err
        assert not out.exists()

    def test_config_naming_dropout_exit_2(self, small_task, tmp_path, capsys):
        """A config written when dropout had an on/off key is refused, not
        silently replayed with a different training setting."""
        old = tmp_path / "old.resolved"
        old.write_text("dropout = True\ndropout_p = 0.2\nseed = 6\n")
        out = tmp_path / "run"
        assert main(run_args(small_task, out, ("--config", str(old)))) == 2
        assert "unknown config key 'dropout'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_naming_schedule_decay_exit_2(self, small_task, tmp_path, capsys):
        """NADAM's momentum-schedule constant is no longer a key."""
        old = tmp_path / "old.resolved"
        old.write_text("schedule_decay = 0.004\nseed = 6\n")
        out = tmp_path / "run"
        assert main(run_args(small_task, out, ("--config", str(old)))) == 2
        assert "unknown config key 'schedule_decay'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shapes, message", [
        (((3, 4), (4, 3)), "non-finite value at byte offset 64"),
        (((3, 4), (5, 3)), "layer dimensions do not chain at byte offset 144"),
        (((3, 4), (4, 2)), "adapter input and output dimensions differ"),
    ], ids=["nan_weight", "unchained", "not_c_to_c"])
    def test_eval_topk_corrupt_adapter_exit_1(self, small_task, tmp_path, capsys,
                                              shapes, message):
        """A corrupt checkpoint is a format error naming the file."""
        raw = bytearray(CKPT_MAGIC + struct.pack("<I", len(shapes)))
        for rows, cols in shapes:
            raw += struct.pack("<II", rows, cols) + bytes(8 * (rows * cols + cols))
        if message.startswith("non-finite"):
            raw[64:72] = struct.pack("<d", math.nan)  # W1[1, 2]
        adapter = tmp_path / "adapter.lfa"
        adapter.write_bytes(raw)
        assert main(eval_args(small_task, adapter, tmp_path / "eval", ("--set", "topk=2"))) == 1
        assert f"error: {adapter}: {message}" in capsys.readouterr().err

    def test_eval_topk_on_saved_adapter(self, small_task, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert main(run_args(small_task, run_out, ("--set", "topk=2"))) == 0
        eval_out = tmp_path / "eval"
        assert main(eval_args(small_task, run_out / "adapter.lfa", eval_out,
                              ("--set", "topk=2", "--baseline", "knn"))) == 0
        # The run's report, ranked from its own final matrix, equals a fresh
        # ranking under the saved (trained, so LFA1-exact) adapter.
        assert (eval_out / "report.json").read_bytes() == (run_out / "report.json").read_bytes()
        doc = json.loads((eval_out / "report.json").read_text())
        assert doc["k"] == 2
        assert all(len(item["ranked"]) == 2 for item in doc["items"])
        assert (eval_out / "baseline_report.json").exists()
        assert (eval_out / "baseline_report.csv").exists()

        # config.resolved states the k it used, so replaying it gives the same files.
        replay = tmp_path / "replay"
        assert main(eval_args(small_task, run_out / "adapter.lfa", replay,
                              ("--config", str(eval_out / "config.resolved"),
                               "--baseline", "knn"))) == 0
        names = sorted(p.name for p in eval_out.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            assert (eval_out / name).read_bytes() == (replay / name).read_bytes(), name

    @pytest.fixture
    def mixed_shapes(self, tmp_path):
        """A 3-class task whose matrices are 4x4, 5x4 and 4x5, and an adapter."""
        rng = np.random.default_rng(3)
        shapes = ((4, 4, 2), (5, 4, 2), (4, 5, 2))
        task = tmp_path / "task"
        for name in ("seen", "emerging"):
            save_dataset(Dataset(name, tuple((i, FeatureMatrix(rng.uniform(0, 1, s)))
                                             for i, s in enumerate(shapes))), task)
        save_adapter(init_adapter(2, 4), task / "adapter.lfa")
        return task

    def test_knn_baseline_needs_one_shape_before_training(self, mixed_shapes, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        assert main(run_args(mixed_shapes, out, ("--baseline", "knn"))) == 2
        assert "pointwise baseline needs one common shape" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.resolved"]

    def test_eval_knn_baseline_needs_one_shape_before_ranking(self, mixed_shapes, tmp_path,
                                                              capsys):
        out = tmp_path / "eval"
        assert main(eval_args(mixed_shapes, mixed_shapes / "adapter.lfa", out,
                              ("--baseline", "knn"))) == 2
        assert "pointwise baseline needs one common shape" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.resolved"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, small_task, tmp_path, capsys, workers):
        out = tmp_path / "run"
        assert main(run_args(small_task, out, ("--workers", workers))) == 2
        assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.resolved"]

    def test_eval_topk_negative_seed_exit_2(self, small_task, tmp_path, capsys):
        adapter = tmp_path / "adapter.lfa"
        save_adapter(init_adapter(3, 4, seed=0), adapter)
        assert main(["eval", "topk",
                     "--seen", str(small_task / "seen.manifest"),
                     "--emerging", str(small_task / "emerging.manifest"),
                     "--adapter", str(adapter), "--set", "seed=-1",
                     "--outdir", str(tmp_path / "eval")]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err

    def test_eval_topk_empty_manifest_exit_2(self, small_task, tmp_path, capsys):
        empty = tmp_path / "empty.manifest"
        empty.write_text("# modality: emerging\n")
        adapter = tmp_path / "adapter.lfa"
        save_adapter(init_adapter(3, 4, seed=0), adapter)
        assert main(["eval", "topk", "--seen", str(small_task / "seen.manifest"),
                     "--emerging", str(empty), "--adapter", str(adapter),
                     "--outdir", str(tmp_path / "eval")]) == 2
        assert "error: dataset 'empty' has no entries" in capsys.readouterr().err

    def test_trace_agrees_with_report_under_exact_tie(self, tmp_path, capsys):
        from test_swim import tied_task

        seen, emerging = tied_task()
        task = tmp_path / "task"
        out = tmp_path / "run"
        argv = ["match", "run", "--seen", str(save_dataset(seen, task)),
                "--emerging", str(save_dataset(emerging, task)), "--outdir", str(out),
                "--set", "alpha=3", "--set", "hidden=8", "--set", "epochs=40",
                "--set", "learning_rate=0.01", "--set", "max_sloma_iters=4",
                "--set", "topk=3"]
        assert main(argv) == 0
        first = json.loads((out / "report.json").read_text())["items"][0]
        assert first["emerging_class"] == 4
        assert [r["seen_class"] for r in first["ranked"][:2]] == [4, 9]
        assert first["ranked"][0]["distance"] == first["ranked"][1]["distance"]
        report = dict(line.split(",") for line in (out / "report.csv").read_text().splitlines())
        last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
        assert last[2:] == [report["top1"], report["top5"]]


@pytest.mark.parametrize("command, settings, message", [
    ("synth gen", ("alpha=0",), "alpha must be >= 1"),
    ("match run", ("warp=2", "map_kind=bogus", "n_classes=1"), "need at least 2 classes"),
    ("eval topk", ("noise_std=-1",), "noise_std must be nonnegative and finite"),
], ids=["synth_gen", "match_run", "eval_topk"])
def test_every_logged_key_is_checked(small_task, tmp_path, capsys, command, settings, message):
    """A command checks the keys it does not use too, so every config.resolved
    it writes is one that all the configured commands accept."""
    out = tmp_path / "out"
    sets = [arg for s in settings for arg in ("--set", s)]
    adapter = tmp_path / "adapter.lfa"
    save_adapter(init_adapter(3, 4, seed=0), adapter)
    argv = {"synth gen": ["synth", "gen", "--outdir", str(out), *sets],
            "match run": run_args(small_task, out, sets),
            "eval topk": eval_args(small_task, adapter, out, sets)}[command]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["config.resolved"]


class TestModuleInvocation:
    def test_python_dash_m_works(self, toy_csvs):
        s, e = toy_csvs
        src = str(Path(warpmatch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "warpmatch", "dpw", "dist", s, e],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.strip() == "654"
