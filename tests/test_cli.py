import json
import shutil

import numpy as np
import pytest

from craftlora.checkpoint import inspect_checkpoint, load_backbone
from craftlora.cli import main
from craftlora.pgm import read_pgm, write_pgm

LIGHT_CONFIG = {
    "seed": 11,
    "denoiser": {"train_steps": 80, "batch_size": 4},
    "trunk": {"steps": 6, "r_max": 6, "r_min": 2, "batch_size": 2},
    "adapter": {"rank": 3, "steps": 8},
    "dataset": {"n_content": 2, "n_style": 2},
    "guidance": {"omega": 2.0},
}


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

    def test_thread_count_never_changes_bytes(self, workspace, tmp_path):
        root, config_path = workspace
        out = tmp_path / "threaded"
        assert run_cli(
            ["gen-pairs", "--config", config_path, "--threads", 4, "--out", out]
        ) == 0
        assert (out / "manifest.tsv").read_bytes() == (
            root / "pairs" / "manifest.tsv"
        ).read_bytes()
        for name in sorted(p.name for p in (out / "images").iterdir()):
            assert (out / "images" / name).read_bytes() == (
                root / "pairs" / "images" / name
            ).read_bytes()

    def test_zero_threads_is_usage_error(self, workspace, tmp_path):
        _, config_path = workspace
        out = tmp_path / "none"
        assert run_cli(
            ["gen-pairs", "--config", config_path, "--threads", 0, "--out", out]
        ) == 1
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

    def run_trunk(self, config_path, dataset, out):
        return run_cli(
            ["train-trunk", "--config", config_path, "--dataset", dataset, "--out", out]
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines + lines[:1],
            lambda lines: ["x" + lines[0][1:]] + lines[1:],
            lambda lines: [lines[0].split("\t", 1)[0]] + lines[1:],
            lambda lines: [lines[0].rsplit("\t", 1)[0] + "\t"] + lines[1:],
        ],
        ids=["duplicate-id", "non-integer-id", "missing-fields", "empty-field"],
    )
    def test_bad_manifest_is_data_error(self, workspace, tmp_path, edit):
        root, config_path = workspace
        pairs = tmp_path / "pairs"
        shutil.copytree(root / "pairs", pairs)
        manifest = pairs / "manifest.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        assert self.run_trunk(config_path, pairs, tmp_path / "bad.crft") == 2
        assert not (tmp_path / "bad.crft").exists()

    def test_mixed_image_sizes_are_data_error(self, workspace, tmp_path):
        root, config_path = workspace
        pairs = tmp_path / "pairs"
        shutil.copytree(root / "pairs", pairs)
        write_pgm(pairs / "images" / "pair_001_style.pgm", np.full((8, 8), 0.5))
        assert self.run_trunk(config_path, pairs, tmp_path / "mixed.crft") == 2
        assert not (tmp_path / "mixed.crft").exists()

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
        assert len(lines) == 50
        assert lines[0].startswith("t=50 ")

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
