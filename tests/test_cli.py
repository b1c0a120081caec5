import hashlib
import json
import shutil
import struct
import zlib
from collections import Counter

import numpy as np
import pytest

from craftlora.checkpoint import inspect_checkpoint, load_backbone, save_backbone
from craftlora.cli import SAMPLING_STEPS, main
from craftlora.denoiser import NoiseSchedule, init_backbone
from craftlora.pgm import pgm_bytes, read_pgm

LIGHT_CONFIG = {
    "seed": 11,
    "denoiser": {"train_steps": 80, "batch_size": 4},
    "trunk": {"steps": 6, "r_max": 6, "r_min": 2, "batch_size": 2},
    "adapter": {"rank": 3, "steps": 8},
    "dataset": {"n_content": 2, "n_style": 2},
    "guidance": {"omega": 2.0},
}


def write_nan_checkpoint(source, target):
    """A copy of a checkpoint whose last stored value is NaN, under a valid CRC."""
    payload = source.read_bytes()[:-4]
    payload = payload[:-4] + struct.pack("<f", np.nan)
    target.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def run_cli(args):
    try:
        result = main([str(a) for a in args])
    except SystemExit as exc:
        return int(exc.code or 0)
    return result or 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(LIGHT_CONFIG))
    assert run_cli(["gen-pairs", "--config", config_path, "--out", root / "pairs"]) == 0
    assert (
        run_cli(
            [
                "train-trunk",
                "--config",
                config_path,
                "--dataset",
                root / "pairs",
                "--out",
                root / "trunk.crft",
            ]
        )
        == 0
    )
    assert (
        run_cli(
            [
                "train-lora",
                "--config",
                config_path,
                "--kind",
                "content",
                "--reference",
                root / "pairs" / "images" / "pair_000_content.pgm",
                "--prompt",
                "a filled disc <c>",
                "--backbone",
                root / "trunk.crft",
                "--out",
                root / "content.crft",
            ]
        )
        == 0
    )
    assert (
        run_cli(
            [
                "train-lora",
                "--config",
                config_path,
                "--kind",
                "style",
                "--reference",
                root / "pairs" / "images" / "pair_000_style.pgm",
                "--prompt",
                "in fine stripe style <s>",
                "--backbone",
                root / "trunk.crft",
                "--out",
                root / "style.crft",
            ]
        )
        == 0
    )
    return root, config_path


class TestGenPairs:
    def test_layout(self, workspace):
        root, _ = workspace
        images = sorted(p.name for p in (root / "pairs" / "images").iterdir())
        assert len(images) == 8  # 2x2 pairs, two files each
        manifest = (root / "pairs" / "manifest.tsv").read_text(encoding="utf-8")
        assert len(manifest.splitlines()) == 4

    def test_rerun_byte_identical(self, workspace, tmp_path):
        root, config_path = workspace
        assert run_cli(["gen-pairs", "--config", config_path, "--out", tmp_path / "again"]) == 0
        base = root / "pairs"
        again = tmp_path / "again"
        assert (base / "manifest.tsv").read_bytes() == (again / "manifest.tsv").read_bytes()
        for name in sorted(p.name for p in (base / "images").iterdir()):
            assert (base / "images" / name).read_bytes() == (again / "images" / name).read_bytes()

    def test_full_default_size_counts(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"seed": 1}))
        assert run_cli(["gen-pairs", "--config", config, "--out", tmp_path / "full"]) == 0
        manifest = (tmp_path / "full" / "manifest.tsv").read_text(encoding="utf-8")
        assert len(manifest.splitlines()) == 100
        assert len(list((tmp_path / "full" / "images").iterdir())) == 200

    def test_single_pair(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"dataset": {"n_content": 1, "n_style": 1}}))
        assert run_cli(["gen-pairs", "--config", config, "--out", tmp_path / "one"]) == 0
        manifest = (tmp_path / "one" / "manifest.tsv").read_text(encoding="utf-8")
        assert len(manifest.splitlines()) == 1

    @pytest.mark.parametrize(
        "host_size, message",
        [(None, "needs a trained backbone"), (8, "expects 64 pixels")],
        ids=["no-backbone", "small-host"],
    )
    def test_diffusion_input_errors_exit_one_without_output(
        self, workspace, tmp_path, capsys, host_size, message
    ):
        # the small host is refused as a ShapeMismatch, a usage error; a raw
        # NumPy ValueError would escape main instead of exiting
        _, config_path = workspace
        out = tmp_path / "pairs"
        args = ["gen-pairs", "--config", config_path, "--mode", "diffusion", "--out", out]
        if host_size is not None:
            host = tmp_path / "small.crft"
            save_backbone(host, init_backbone(image_size=host_size, hidden_width=16, n_layers=3))
            args += ["--backbone", host]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_threads_is_unknown_option(self, workspace, tmp_path, capsys):
        # gen-pairs runs every pair as one batch; it takes no thread count
        _, config_path = workspace
        out = tmp_path / "none"
        assert run_cli(
            ["gen-pairs", "--config", config_path, "--threads", 2, "--out", out]
        ) == 1
        assert "No such option" in capsys.readouterr().err
        assert not out.exists()


class TestTrainTrunk:
    def test_outputs(self, workspace):
        root, _ = workspace
        assert (root / "trunk.crft").exists()
        assert (root / "trunk.crft.bases").exists()
        summary = inspect_checkpoint(root / "trunk.crft")
        assert summary["kind"] == "backbone"
        assert len(summary["tensors"]) == 8

    def test_projection_invariant_via_sidecar(self, workspace):
        from craftlora.checkpoint import load_tensor_set
        from craftlora.linalg import householder_qr
        from craftlora.subspace import merge_subspaces

        root, _ = workspace
        host = load_backbone(root / "trunk.crft")
        bases = dict(load_tensor_set(root / "trunk.crft.bases"))
        for name in host.names:
            q_c, _ = householder_qr(bases[f"{name}.content"])
            q_s, _ = householder_qr(bases[f"{name}.style"])
            merged = merge_subspaces(q_c, q_s)
            # f32 narrowing loosens the invariant accordingly
            assert np.abs(merged.T @ host.weight(name)).max() < 1e-6

    def run_trunk(self, config_path, dataset, out, *extra):
        return run_cli(
            ["train-trunk", "--config", config_path, "--dataset", dataset, "--out", out, *extra]
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines + lines[:1], "lists pair 0 twice"),
            (lambda lines: ["x" + lines[0][1:]] + lines[1:], "malformed line"),
            (lambda lines: [lines[0].split("\t", 1)[0]] + lines[1:], "malformed line"),
            (lambda lines: [lines[0].rsplit("\t", 1)[0] + "\t"] + lines[1:], "malformed line"),
        ],
        ids=["duplicate-id", "non-integer-id", "missing-fields", "empty-field"],
    )
    def test_bad_manifest_is_data_error(self, workspace, tmp_path, capsys, edit, message):
        root, config_path = workspace
        pairs = tmp_path / "pairs"
        shutil.copytree(root / "pairs", pairs)
        manifest = pairs / "manifest.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        assert self.run_trunk(config_path, pairs, tmp_path / "bad.crft") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad.crft").exists()

    def test_empty_manifest_is_data_error(self, workspace, tmp_path, capsys):
        root, config_path = workspace
        pairs = tmp_path / "pairs"
        shutil.copytree(root / "pairs", pairs)
        (pairs / "manifest.tsv").write_text("", encoding="utf-8")
        assert self.run_trunk(config_path, pairs, tmp_path / "empty.crft") == 2
        err = capsys.readouterr().err
        assert "data error" in err and "lists no pairs" in err
        assert not (tmp_path / "empty.crft").exists()

    def test_mixed_image_sizes_are_data_error(self, workspace, tmp_path, capsys):
        # the replaced image gets its checksum, so the shape check must catch it
        root, config_path = workspace
        pairs = tmp_path / "pairs"
        shutil.copytree(root / "pairs", pairs)
        blob = pgm_bytes(np.full((8, 8), 0.5))
        (pairs / "images" / "pair_001_style.pgm").write_bytes(blob)
        manifest = pairs / "manifest.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\t" + hashlib.sha256(blob).hexdigest()
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self.run_trunk(config_path, pairs, tmp_path / "mixed.crft") == 2
        assert "mixes image shapes" in capsys.readouterr().err
        assert not (tmp_path / "mixed.crft").exists()

    @pytest.mark.parametrize("with_base", [False, True], ids=["trained-base", "given-base"])
    def test_pairs_of_another_size_exit_one_without_output(
        self, workspace, tmp_path, capsys, with_base
    ):
        # 8x8 pairs for the 16x16 denoiser of the config, or for a 16x16
        # --base host, are refused as a ShapeMismatch, a usage error; a raw
        # NumPy ValueError would escape main instead
        root, config_path = workspace
        small_config = tmp_path / "small.json"
        small_config.write_text(json.dumps({**LIGHT_CONFIG, "denoiser": {"image_size": 8}}))
        pairs = tmp_path / "pairs"
        assert run_cli(["gen-pairs", "--config", small_config, "--out", pairs]) == 0
        out = tmp_path / "trunk.crft"
        base = ["--base", root / "trunk.crft"] if with_base else []
        assert self.run_trunk(config_path, pairs, out, *base) == 1
        err = capsys.readouterr().err
        expected = (
            "the host expects square images of 256 pixels" if with_base
            else "images are 8x8; the denoiser is 16x16"
        )
        assert err.startswith("error:") and expected in err
        assert not out.exists()
        assert not (tmp_path / "trunk.crft.bases").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
    def test_failed_fit_writes_no_save_base(self, workspace, tmp_path, existing):
        # 8x8 pairs for a 16x16 --base fail the fit; --save-base is written
        # only after a fit succeeds, so an old file keeps its bytes and no
        # new file appears
        root, config_path = workspace
        small_config = tmp_path / "small.json"
        small_config.write_text(json.dumps({**LIGHT_CONFIG, "denoiser": {"image_size": 8}}))
        pairs = tmp_path / "pairs"
        assert run_cli(["gen-pairs", "--config", small_config, "--out", pairs]) == 0
        saved = tmp_path / "base.crft"
        if existing:
            shutil.copyfile(root / "content.crft", saved)
            before = saved.read_bytes()
        code = self.run_trunk(
            config_path, pairs, tmp_path / "trunk.crft",
            "--base", root / "trunk.crft", "--save-base", saved,
        )
        assert code == 1
        if existing:
            assert saved.read_bytes() == before
        else:
            assert not saved.exists()

    def test_save_failing_partway_keeps_the_old_dataset(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # a save at another sigma over the dataset fails while writing its
        # fourth file; the old dataset stays byte for byte, no temporary
        # file is left behind, and training still accepts the dataset
        from craftlora import checkpoint

        root, config_path = workspace
        pairs = tmp_path / "pairs"
        shutil.copytree(root / "pairs", pairs)
        before = {p: p.read_bytes() for p in pairs.rglob("*") if p.is_file()}
        synced = []
        real_fsync = checkpoint.os.fsync

        def failing_fsync(fd):
            if len(synced) == 3:
                raise OSError("disk full")
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(checkpoint.os, "fsync", failing_fsync)
        assert run_cli(
            ["gen-pairs", "--config", config_path, "--sigma", 0.3, "--out", pairs]
        ) == 2
        monkeypatch.undo()
        assert len(synced) == 3
        after = {p: p.read_bytes() for p in pairs.rglob("*") if p.is_file()}
        assert after == before
        capsys.readouterr()
        assert self.run_trunk(config_path, pairs, tmp_path / "kept.crft") == 0
        assert (tmp_path / "kept.crft").exists()

    def test_loss_far_above_first_step_exits_three(self, workspace, tmp_path):
        # at peak_lr 1e4 the base loss stays finite but passes a thousand
        # times its first value at step 2; the base must not be saved
        root, _ = workspace
        conf = tmp_path / "steep.json"
        doc = dict(LIGHT_CONFIG)
        doc["denoiser"] = {"train_steps": 5, "batch_size": 4, "peak_lr": 1e4}
        conf.write_text(json.dumps(doc))
        code = run_cli([
            "train-trunk", "--config", conf, "--dataset", root / "pairs",
            "--out", tmp_path / "steep.crft", "--save-base", tmp_path / "base.crft",
        ])
        assert code == 3
        assert not (tmp_path / "steep.crft").exists()
        assert not (tmp_path / "base.crft").exists()

    def test_negative_rate_exits_one_without_output(self, workspace, tmp_path, capsys):
        # a negative rate would train the bases by gradient ascent
        root, _ = workspace
        conf = tmp_path / "ascent.json"
        conf.write_text(json.dumps({**LIGHT_CONFIG, "trunk": {"steps": 6, "peak_lr": -1e-3}}))
        out = tmp_path / "ascent.crft"
        assert self.run_trunk(conf, root / "pairs", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "trunk.peak_lr" in err
        assert not out.exists()
        assert not (tmp_path / "ascent.crft.bases").exists()


class TestTrainLora:
    def test_adapter_checkpoint(self, workspace):
        root, _ = workspace
        summary = inspect_checkpoint(root / "content.crft")
        assert summary["kind"] == "adapter"
        assert summary["adapter_kind"] == "content"
        assert summary["rank"] == 3
        assert summary["host_hash"]

    def test_marker_missing_is_usage_error(self, workspace, tmp_path):
        root, config_path = workspace
        code = run_cli(
            [
                "train-lora",
                "--config",
                config_path,
                "--kind",
                "style",
                "--reference",
                root / "pairs" / "images" / "pair_000_style.pgm",
                "--prompt",
                "no marker at all",
                "--backbone",
                root / "trunk.crft",
                "--out",
                tmp_path / "nope.crft",
            ]
        )
        assert code == 1


    def test_reference_of_another_size_exits_one_without_output(
        self, workspace, tmp_path, capsys
    ):
        # an 8x8 reference for the 16x16 host is refused as a ShapeMismatch,
        # a usage error; a raw NumPy ValueError would escape main instead
        root, config_path = workspace
        reference = tmp_path / "small.pgm"
        reference.write_bytes(pgm_bytes(np.full((8, 8), 0.5)))
        out = tmp_path / "small.crft"
        code = run_cli([
            "train-lora", "--config", config_path, "--kind", "content",
            "--reference", reference, "--prompt", "a filled disc <c>",
            "--backbone", root / "trunk.crft", "--out", out,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "the host expects 256" in err
        assert not out.exists()

    def test_negative_rates_exit_one_without_output(self, workspace, tmp_path, capsys):
        # refused with the config, before the adapter loss can diverge (exit 3)
        root, _ = workspace
        conf = tmp_path / "ascent.json"
        rates = {"peak_lr": -5e-3, "start_lr": -5e-4, "floor_lr": -5e-4}
        conf.write_text(json.dumps({**LIGHT_CONFIG, "adapter": {"rank": 3, "steps": 8, **rates}}))
        out = tmp_path / "ascent.crft"
        code = run_cli([
            "train-lora", "--config", conf, "--kind", "style",
            "--reference", root / "pairs" / "images" / "pair_000_style.pgm",
            "--prompt", "in fine stripe style <s>",
            "--backbone", root / "trunk.crft", "--out", out,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "adapter.peak_lr" in err
        assert not out.exists()


    def test_non_finite_last_update_exits_three_without_output(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # a non-finite gradient at the last of the 8 steps leaves every loss
        # finite; the adapter it produces must be refused, not saved
        import craftlora.adapters

        real_loss = craftlora.adapters.adapter_loss
        calls = []

        def last_gradient_nan(*args):
            loss, factor_grads, (g_w, g_b) = real_loss(*args)
            calls.append(1)
            if len(calls) == LIGHT_CONFIG["adapter"]["steps"]:
                g_b = float("nan")
            return loss, factor_grads, (g_w, g_b)

        monkeypatch.setattr(craftlora.adapters, "adapter_loss", last_gradient_nan)
        root, config_path = workspace
        out = tmp_path / "nan.crft"
        code = run_cli([
            "train-lora", "--config", config_path, "--kind", "content",
            "--reference", root / "pairs" / "images" / "pair_000_content.pgm",
            "--prompt", "a filled disc <c>", "--backbone", root / "trunk.crft", "--out", out,
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert len(calls) == LIGHT_CONFIG["adapter"]["steps"]
        assert list(tmp_path.iterdir()) == []


class TestSample:
    def test_sample_writes_image_and_trace(self, workspace, tmp_path):
        root, config_path = workspace
        out = tmp_path / "img.pgm"
        trace = tmp_path / "trace.txt"
        code = run_cli(
            [
                "sample",
                "--config",
                config_path,
                "--prompt",
                "a filled disc <c> in fine stripe style <s>",
                "--backbone",
                root / "trunk.crft",
                "--content-adapter",
                root / "content.crft",
                "--style-adapter",
                root / "style.crft",
                "--out",
                out,
                "--trace",
                trace,
            ]
        )
        assert code == 0
        img = read_pgm(out)
        assert img.shape == (16, 16)
        lines = trace.read_text().splitlines()
        # one record per kept step of the respaced schedule
        assert len(lines) == SAMPLING_STEPS == 25
        assert lines[0].startswith("t=50 ") and lines[-1].startswith("t=1 ")

    def test_non_finite_prediction_exits_3_and_keeps_old_image(
        self, workspace, tmp_path, monkeypatch
    ):
        from craftlora import guidance

        root, config_path = workspace
        out = tmp_path / "img.pgm"
        out.write_bytes(pgm_bytes(np.full((16, 16), 0.5)))
        before = out.read_bytes()
        real_forward = guidance.forward_pass

        def poisoned(x, t, *args, **kwargs):
            result, cache = real_forward(x, t, *args, **kwargs)
            if t == 30:
                result[0, 0] = np.inf
            return result, cache

        monkeypatch.setattr(guidance, "forward_pass", poisoned)
        code = run_cli(
            [
                "sample",
                "--config",
                config_path,
                "--prompt",
                "a filled disc <c> in fine stripe style <s>",
                "--backbone",
                root / "trunk.crft",
                "--out",
                out,
            ]
        )
        assert code == 3
        assert out.read_bytes() == before

    def test_host_beyond_float32_exits_3_naming_its_layer(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # a checkpoint stores float32, so the oversized host is handed over
        # at load time; the sampler refuses it when it casts the host to float32
        from craftlora import checkpoint

        root, config_path = workspace
        real_load = checkpoint.load_backbone

        def oversized(path):
            host = real_load(path)
            return host.replace({"layer8": host.weight("layer8") * 1e306})

        monkeypatch.setattr(checkpoint, "load_backbone", oversized)
        capsys.readouterr()
        code = run_cli([
            "sample", "--config", config_path,
            "--prompt", "a filled disc <c>",
            "--backbone", root / "trunk.crft",
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: host layer 'layer8' lies outside float32's range"
        )
        assert not (tmp_path / "never.pgm").exists()

    def test_schedule_of_at_most_25_steps_samples_every_step(self, workspace, tmp_path):
        root, _ = workspace
        conf = tmp_path / "short.json"
        conf.write_text(json.dumps({
            **LIGHT_CONFIG,
            "schedule": {"total_steps": 20},
            "guidance": {"omega": 2.0, "content_window": [1, 15], "style_window": [10, 20]},
        }))
        trace = tmp_path / "trace.txt"
        code = run_cli([
            "sample", "--config", conf,
            "--prompt", "a filled disc <c> in fine stripe style <s>",
            "--backbone", root / "trunk.crft",
            "--out", tmp_path / "img.pgm", "--trace", trace,
        ])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert [line.split()[0] for line in lines] == [f"t={t}" for t in range(20, 0, -1)]

    def test_window_between_sampled_steps_exits_1(self, workspace, tmp_path, capsys):
        # [24, 25] lies inside the 50-step schedule but holds none of the
        # sampled steps (23 and 26 are the nearest)
        root, _ = workspace
        conf = tmp_path / "narrow.json"
        conf.write_text(json.dumps({**LIGHT_CONFIG, "guidance": {"style_window": [24, 25]}}))
        capsys.readouterr()
        code = run_cli([
            "sample", "--config", conf,
            "--prompt", "a filled disc <c> in fine stripe style <s>",
            "--backbone", root / "trunk.crft",
            "--style-adapter", root / "style.crft",
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "config error: guidance.style_window [24, 25] holds none of the 25 sampled steps"
        )
        assert not (tmp_path / "never.pgm").exists()

    def test_zero_gammas_match_bare_sample(self, workspace, tmp_path):
        root, config_path = workspace
        args = [
            "sample",
            "--config",
            config_path,
            "--prompt",
            "a filled disc <c> in fine stripe style <s>",
            "--backbone",
            root / "trunk.crft",
        ]
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        assert run_cli(args + [
            "--content-adapter", root / "content.crft",
            "--style-adapter", root / "style.crft",
            "--gamma-c", 0, "--gamma-s", 0, "--out", a,
        ]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "slots",
        [("style", "content"), ("style", None), (None, "content")],
        ids=["both-swapped", "style-as-content", "content-as-style"],
    )
    def test_adapter_in_the_other_slot_is_usage_error(self, workspace, tmp_path, capsys, slots):
        # each adapter file carries its kind; a swapped one must not be sampled
        root, config_path = workspace
        args = [
            "sample", "--config", config_path,
            "--prompt", "a filled disc <c> in fine stripe style <s>",
            "--backbone", root / "trunk.crft",
            "--out", tmp_path / "never.pgm",
        ]
        for flag, kind in zip(("--content-adapter", "--style-adapter"), slots):
            if kind is not None:
                args += [flag, root / f"{kind}.crft"]
        capsys.readouterr()
        assert run_cli(args) == 1
        assert "adapter slot holds a" in capsys.readouterr().err
        assert not (tmp_path / "never.pgm").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma-c", "nan"), ("--gamma-s", "inf"), ("--gamma-c", "-inf"), ("--gamma-s", "-0.5")],
    )
    def test_non_finite_or_negative_gain_is_usage_error(
        self, workspace, tmp_path, capsys, flag, value
    ):
        root, config_path = workspace
        capsys.readouterr()
        code = run_cli([
            "sample", "--config", config_path,
            "--prompt", "a filled disc <c> in fine stripe style <s>",
            "--backbone", root / "trunk.crft",
            "--content-adapter", root / "content.crft",
            "--style-adapter", root / "style.crft",
            flag, value,
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 1
        assert "must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "never.pgm").exists()

    def test_finite_gain_that_overflows_exits_three(self, workspace, tmp_path, capsys):
        root, config_path = workspace
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = run_cli([
                "sample", "--config", config_path,
                "--prompt", "a filled disc <c> in fine stripe style <s>",
                "--backbone", root / "trunk.crft",
                "--style-adapter", root / "style.crft",
                "--gamma-s", "1e300",
                "--out", tmp_path / "never.pgm",
            ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "never.pgm").exists()

    def test_symmetric_flag_changes_output(self, workspace, tmp_path):
        root, config_path = workspace
        args = [
            "sample",
            "--config",
            config_path,
            "--prompt",
            "a filled disc <c> in fine stripe style <s>",
            "--backbone",
            root / "trunk.crft",
            "--content-adapter",
            root / "content.crft",
            "--style-adapter",
            root / "style.crft",
        ]
        a = tmp_path / "asym.pgm"
        b = tmp_path / "sym.pgm"
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b, "--symmetric-cfg"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_replay_byte_identical(self, workspace, tmp_path):
        root, config_path = workspace
        args = [
            "sample",
            "--config",
            config_path,
            "--prompt",
            "a filled disc <c>",
            "--backbone",
            root / "trunk.crft",
            "--content-adapter",
            root / "content.crft",
        ]
        a = tmp_path / "r1.pgm"
        b = tmp_path / "r2.pgm"
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plain_host_flow(self, workspace, tmp_path):
        # train-trunk --save-base gives the unprojected backbone; adapters
        # trained against it sample on it as their host
        root, config_path = workspace
        assert run_cli([
            "train-trunk", "--config", config_path,
            "--dataset", root / "pairs",
            "--out", tmp_path / "host.crft",
            "--save-base", tmp_path / "base.crft",
        ]) == 0
        assert run_cli([
            "train-lora", "--config", config_path, "--kind", "content",
            "--reference", root / "pairs" / "images" / "pair_000_content.pgm",
            "--prompt", "a filled disc <c>",
            "--backbone", tmp_path / "base.crft",
            "--out", tmp_path / "plain_content.crft",
        ]) == 0
        assert run_cli([
            "sample", "--config", config_path,
            "--prompt", "a filled disc <c>",
            "--backbone", tmp_path / "base.crft",
            "--content-adapter", tmp_path / "plain_content.crft",
            "--out", tmp_path / "plain.pgm",
        ]) == 0
        assert read_pgm(tmp_path / "plain.pgm").shape == (16, 16)

    @pytest.mark.parametrize(
        "section", ['{"omega": NaN}', '{"alpha_max": Infinity}'], ids=["nan", "infinity"]
    )
    def test_non_finite_config_constant_is_usage_error(self, workspace, tmp_path, capsys, section):
        # Python's json accepts these literals; the config loader must not
        root, _ = workspace
        conf = tmp_path / "conf.json"
        conf.write_text('{"guidance": %s}' % section, encoding="utf-8")
        code = run_cli([
            "sample", "--config", conf,
            "--prompt", "a filled disc",
            "--backbone", root / "trunk.crft",
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "never.pgm").exists()

    def test_adapter_off_its_rank_is_data_error(self, workspace, tmp_path, capsys):
        # a CRC-valid adapter whose header rank is not its factors' rank
        from craftlora.checkpoint import load_adapter, save_adapter

        root, config_path = workspace
        adapter = load_adapter(root / "style.crft")
        adapter.rank = 5
        name = adapter.routing.style[0]
        down, up = adapter.factors[name]
        adapter.factors[name] = (down, np.vstack([up, up[:1]]))
        save_adapter(tmp_path / "style.crft", adapter)
        capsys.readouterr()
        code = run_cli([
            "sample", "--config", config_path,
            "--prompt", "a filled disc <c> in fine stripe style <s>",
            "--backbone", root / "trunk.crft",
            "--style-adapter", tmp_path / "style.crft",
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "never.pgm").exists()

    def test_non_finite_backbone_is_data_error(self, workspace, tmp_path, capsys):
        root, config_path = workspace
        host = tmp_path / "nan.crft"
        write_nan_checkpoint(root / "trunk.crft", host)
        capsys.readouterr()
        code = run_cli([
            "sample", "--config", config_path,
            "--prompt", "a filled disc",
            "--backbone", host,
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 2
        assert "non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "never.pgm").exists()

    def test_bases_sidecar_as_backbone_is_data_error(self, workspace, tmp_path):
        root, config_path = workspace
        code = run_cli([
            "sample", "--config", config_path,
            "--prompt", "a filled disc",
            "--backbone", root / "trunk.crft.bases",
            "--out", tmp_path / "never.pgm",
        ])
        assert code == 2
        assert not (tmp_path / "never.pgm").exists()

    def test_host_mismatch_exit_code(self, workspace, tmp_path):
        root, config_path = workspace
        # retrain a trunk with a different seed: adapters refuse the host
        other_conf = tmp_path / "conf2.json"
        doc = dict(LIGHT_CONFIG)
        doc["seed"] = 99
        other_conf.write_text(json.dumps(doc))
        assert (
            run_cli(
                [
                    "train-trunk",
                    "--config",
                    other_conf,
                    "--dataset",
                    root / "pairs",
                    "--out",
                    tmp_path / "other.crft",
                ]
            )
            == 0
        )
        code = run_cli(
            [
                "sample",
                "--config",
                config_path,
                "--prompt",
                "a filled disc <c>",
                "--backbone",
                tmp_path / "other.crft",
                "--content-adapter",
                root / "content.crft",
                "--out",
                tmp_path / "x.pgm",
            ]
        )
        assert code == 2


    def test_diverged_base_exits_three_without_output(self, workspace, tmp_path):
        root, _ = workspace
        conf = tmp_path / "diverge.json"
        doc = dict(LIGHT_CONFIG)
        doc["denoiser"] = {"train_steps": 20, "batch_size": 4, "peak_lr": 1e30, "warmup": 1}
        conf.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            code = run_cli([
                "train-trunk", "--config", conf,
                "--dataset", root / "pairs",
                "--out", tmp_path / "nan.crft",
            ])
        assert code == 3
        assert not (tmp_path / "nan.crft").exists()

class TestEval:
    def test_report(self, workspace, tmp_path):
        root, config_path = workspace
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "eval",
                "--config",
                config_path,
                "--backbone",
                root / "trunk.crft",
                "--content-adapter",
                root / "content.crft",
                "--style-adapter",
                root / "style.crft",
                "--out",
                out,
                "--n-content",
                2,
                "--n-style",
                2,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"s_c", "s_s", "s_x", "pairs", "seed", "config_hash"}
        assert -1.0 <= doc["s_c"] <= 1.0
        assert -1.0 <= doc["s_s"] <= 1.0
        assert 0.0 <= doc["s_x"] <= 1.0
        assert len(doc["pairs"]) == 4

    def test_defaults_sample_the_respaced_schedule(self, workspace, tmp_path, monkeypatch):
        from craftlora import denoiser

        root, config_path = workspace
        steps = []
        real_step = denoiser.ddpm_step

        def counted(x_t, t, *args, **kwargs):
            steps.append(t)
            return real_step(x_t, t, *args, **kwargs)

        monkeypatch.setattr(denoiser, "ddpm_step", counted)
        code = run_cli([
            "eval", "--config", config_path,
            "--backbone", root / "trunk.crft",
            "--content-adapter", root / "content.crft",
            "--style-adapter", root / "style.crft",
            "--out", tmp_path / "report.json", "--n-content", 2, "--n-style", 2,
        ])
        assert code == 0
        # the 2x2 grid is one batch: one reverse step per kept step
        kept = NoiseSchedule.linear().respaced(SAMPLING_STEPS).timesteps
        assert len(kept) == 25 and steps == list(reversed(kept))

    def test_thread_count_never_changes_bytes(self, workspace, tmp_path):
        # the three content rows of four cells run as one batch at either
        # thread count, since a block holds at least two rows
        root, config_path = workspace
        reports = []
        for threads in (1, 3):
            out = tmp_path / f"report{threads}.json"
            code = run_cli([
                "eval", "--config", config_path, "--threads", threads,
                "--backbone", root / "trunk.crft",
                "--content-adapter", root / "content.crft",
                "--style-adapter", root / "style.crft",
                "--out", out, "--n-content", 3, "--n-style", 4,
            ])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert len(json.loads(reports[0])["pairs"]) == 12

    def test_scores_a_grid_as_stacks(self, workspace, tmp_path, monkeypatch):
        # each metric call filters and transforms its whole input at once; one
        # image at a time, this 2x3 grid took 423 transforms and 415 filters
        from craftlora import frequency, metrics

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        extractor = metrics.ImageFeatureExtractor
        monkeypatch.setattr(extractor, "transform", counted("transform", extractor.transform))
        lowpass = counted("lowpass", frequency.gaussian_lowpass)
        monkeypatch.setattr(frequency, "gaussian_lowpass", lowpass)
        monkeypatch.setattr(metrics, "gaussian_lowpass", lowpass)
        root, config_path = workspace
        code = run_cli([
            "eval", "--config", config_path,
            "--backbone", root / "trunk.crft",
            "--content-adapter", root / "content.crft",
            "--style-adapter", root / "style.crft",
            "--out", tmp_path / "report.json", "--n-content", 2, "--n-style", 3,
        ])
        assert code == 0
        # the calibration ceiling makes one call of each per block of pairs
        blocks = metrics.CALIBRATION_DRAWS // metrics.CALIBRATION_BLOCK_PAIRS
        assert 0 < calls["transform"] <= 11 + blocks
        assert 0 < calls["lowpass"] <= 7 + blocks

    def test_one_noise_seed_per_content_row(self, workspace, tmp_path, monkeypatch):
        from craftlora.guidance import GuidedSampler

        cells = []
        real_sample_batch = GuidedSampler.sample_batch

        def recording(self, prompts, seeds, *args, **kwargs):
            cells.extend((p.split(" <c> ")[0], seed) for p, seed in zip(prompts, seeds))
            return real_sample_batch(self, prompts, seeds, *args, **kwargs)

        monkeypatch.setattr(GuidedSampler, "sample_batch", recording)
        root, config_path = workspace
        code = run_cli([
            "eval", "--config", config_path,
            "--backbone", root / "trunk.crft",
            "--content-adapter", root / "content.crft",
            "--style-adapter", root / "style.crft",
            "--out", tmp_path / "report.json", "--n-content", 3, "--n-style", 2,
        ])
        assert code == 0
        seeds_by_row = {}
        for content, seed in cells:
            seeds_by_row.setdefault(content, set()).add(seed)
        assert len(cells) == 6 and len(seeds_by_row) == 3
        assert all(len(seeds) == 1 for seeds in seeds_by_row.values())
        assert len(set().union(*seeds_by_row.values())) == 3

    def test_full_grid_is_one_batch_drawing_one_stream_per_seed(self, trained_base, monkeypatch):
        # the 10x10 grid's 100 cells run as one sample_batch call, and its
        # ten content rows draw from ten streams, one per distinct seed
        from craftlora import cli, guidance
        from craftlora.config import RunConfig

        batches, streams = [], []
        real_sample_batch = guidance.GuidedSampler.sample_batch
        real_make_rng = guidance.make_rng

        def recording_batch(self, prompts, seeds):
            batches.append(len(prompts))
            return real_sample_batch(self, prompts, seeds)

        def recording_rng(seed, *labels):
            if labels == ("sample",):
                streams.append(seed)
            return real_make_rng(seed, *labels)

        monkeypatch.setattr(guidance.GuidedSampler, "sample_batch", recording_batch)
        monkeypatch.setattr(guidance, "make_rng", recording_rng)
        cli.evaluate_grid(trained_base, None, None, RunConfig().validate(), 10, 10, threads=1)
        assert batches == [100]
        assert len(streams) == len(set(streams)) == 10

    def test_threaded_grid_draws_each_rows_stream_once(self, trained_base, monkeypatch):
        # at three threads the blocks hold whole content rows, so the ten
        # rows still build ten streams and the report keeps its bytes
        from craftlora import cli, guidance
        from craftlora.config import RunConfig

        real_make_rng = guidance.make_rng
        reports = {}
        for threads in (1, 3):
            streams = []

            def recording_rng(seed, *labels, streams=streams):
                if labels == ("sample",):
                    streams.append(seed)
                return real_make_rng(seed, *labels)

            monkeypatch.setattr(guidance, "make_rng", recording_rng)
            report = cli.evaluate_grid(
                trained_base, None, None, RunConfig().validate(), 10, 10, threads=threads
            )
            assert len(streams) == len(set(streams)) == 10
            reports[threads] = report.to_json()
        assert reports[3] == reports[1]

    def test_swapped_adapters_are_usage_error(self, workspace, tmp_path, capsys):
        root, config_path = workspace
        capsys.readouterr()
        code = run_cli([
            "eval", "--config", config_path,
            "--backbone", root / "trunk.crft",
            "--content-adapter", root / "style.crft",
            "--style-adapter", root / "content.crft",
            "--out", tmp_path / "never.json",
        ])
        assert code == 1
        assert "adapter slot holds a" in capsys.readouterr().err
        assert not (tmp_path / "never.json").exists()

    def test_zero_threads_is_usage_error(self, workspace, tmp_path):
        root, config_path = workspace
        out = tmp_path / "report.json"
        code = run_cli([
            "eval", "--config", config_path, "--threads", 0,
            "--backbone", root / "trunk.crft",
            "--content-adapter", root / "content.crft",
            "--style-adapter", root / "style.crft",
            "--out", out,
        ])
        assert code == 1
        assert not out.exists()


class TestInspect:
    def test_valid_file_exit_zero(self, workspace, capsys):
        root, _ = workspace
        for name, kind in (("trunk.crft", "backbone"), ("trunk.crft.bases", "tensors")):
            capsys.readouterr()
            assert run_cli(["inspect", root / name]) == 0
            assert f"kind: {kind} " in capsys.readouterr().out

    def test_truncated_file_exit_two(self, workspace, tmp_path):
        root, _ = workspace
        broken = tmp_path / "broken.crft"
        broken.write_bytes((root / "trunk.crft").read_bytes()[:50])
        assert run_cli(["inspect", broken]) == 2

    def test_non_finite_checkpoint_exit_two(self, workspace, tmp_path, capsys):
        root, _ = workspace
        for name in ("trunk.crft", "content.crft", "trunk.crft.bases"):
            broken = tmp_path / name
            write_nan_checkpoint(root / name, broken)
            capsys.readouterr()
            assert run_cli(["inspect", broken]) == 2
            captured = capsys.readouterr()
            assert "non-finite entries" in captured.err
            assert "crc ok" not in captured.out

    def test_unknown_command_is_usage_error(self):
        assert run_cli(["frobnicate"]) == 1


class TestEnvConfigFallback:
    def test_env_var_used(self, workspace, tmp_path, monkeypatch):
        root, config_path = workspace
        monkeypatch.setenv("CRAFTLORA_CONFIG", str(config_path))
        out = tmp_path / "env"
        assert run_cli(["gen-pairs", "--out", out]) == 0
        assert (out / "manifest.tsv").read_bytes() == (
            root / "pairs" / "manifest.tsv"
        ).read_bytes()
