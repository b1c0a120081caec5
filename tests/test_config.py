import json
import math

import pytest

from craftlora.adapters import LoraTrainer
from craftlora.cli import main
from craftlora.config import (
    ENV_CONFIG,
    RunConfig,
    config_from_dict,
    config_hash,
    load_config,
)
from craftlora.denoiser import DenoiserTrainer
from craftlora.exceptions import ConfigInvalid
from craftlora.subspace import TrunkFinetuner

BAD_RATES = [
    ("peak_lr", 0.0),
    ("peak_lr", -1e-3),
    ("peak_lr", "fast"),
    ("peak_lr", math.nan),
    ("peak_lr", math.inf),
    ("peak_lr", True),
    ("start_lr", -1e-5),
    ("start_lr", "slow"),
    ("start_lr", math.inf),
    ("floor_lr", -1e-6),
    ("floor_lr", math.nan),
    ("floor_lr", None),
    ("warmup", -1),
    ("warmup", 2.5),
    ("warmup", True),
    ("warmup", "10"),
]
BAD_RATE_IDS = [f"{key}={value!r}" for key, value in BAD_RATES]

# Documents whose values their fields' types do not admit, with the field
# each error must name.
BAD_TYPES = [
    ({"trunk": {"steps": "many"}}, "trunk.steps"),
    ({"trunk": {"lambda_reg": None}}, "trunk.lambda_reg"),
    ({"guidance": {"omega": "x"}}, "guidance.omega"),
    ({"adapter": {"rank": 2.5}}, "adapter.rank"),
    ({"denoiser": {"batch_size": 2.5}}, "denoiser.batch_size"),
    ({"dataset": {"n_content": 1.5}}, "dataset.n_content"),
    ({"dataset": {"mode": 3}}, "dataset.mode"),
    ({"schedule": {"beta_end": [0.2]}}, "schedule.beta_end"),
    ({"guidance": {"content_window": [1.5, 30]}}, "guidance.content_window"),
    ({"guidance": {"style_window": 20}}, "guidance.style_window"),
    ({"guidance": {"style_window": [15, 30, 50]}}, "guidance.style_window"),
    ({"seed": True}, "seed"),
    ({"seed": 1.0}, "seed"),
]
BAD_TYPE_IDS = [json.dumps(doc) for doc, _ in BAD_TYPES]


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig().validate()
        assert config.schedule.total_steps == 50
        assert config.trunk.lambda_reg == 1e-4
        assert config.trunk.alpha_perc == 0.1
        assert config.adapter.rank == 16
        assert config.adapter.steps == 1000
        assert config.guidance.omega == 7.5
        assert config.guidance.content_window == (1, 35)
        assert config.guidance.style_window == (15, 50)
        assert config.dataset.sigma == 0.35
        assert config.dataset.n_content == 10 and config.dataset.n_style == 10

    def test_empty_document_runs_defaults(self):
        assert config_from_dict({}).seed == 0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"nope": {}})
        with pytest.raises(ConfigInvalid):
            config_from_dict({"trunk": {"nope": 1}})

    def test_window_validation(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"guidance": {"content_window": [0, 35]}})
        with pytest.raises(ConfigInvalid):
            config_from_dict(
                {"schedule": {"total_steps": 30}, "guidance": {"style_window": [15, 50]}}
            )

    def test_sigma_validation(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"dataset": {"sigma": 0.0}})

    def test_partial_overrides(self):
        config = config_from_dict({"seed": 9, "trunk": {"steps": 7}})
        assert config.seed == 9
        assert config.trunk.steps == 7
        assert config.trunk.r_max == 16  # untouched default

    @pytest.mark.parametrize("section", ["denoiser", "trunk", "adapter"])
    @pytest.mark.parametrize("key, value", BAD_RATES, ids=BAD_RATE_IDS)
    def test_bad_training_rates_rejected(self, section, key, value):
        with pytest.raises(ConfigInvalid, match=f"^{section}\\.{key} must be"):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("doc, field", BAD_TYPES, ids=BAD_TYPE_IDS)
    def test_values_of_the_wrong_type_rejected(self, doc, field, tmp_path, capsys):
        with pytest.raises(ConfigInvalid, match=f"^{field} must be "):
            config_from_dict(doc)
        # the command line reports it as a config error, before any output
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(doc))
        out = tmp_path / "pairs"
        with pytest.raises(SystemExit) as exit_info:
            main(["gen-pairs", "--config", str(conf), "--out", str(out)])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["denoiser", "trunk", "adapter"])
    def test_edge_training_rates_accepted(self, section):
        rates = {"peak_lr": 1e30, "start_lr": 0.0, "floor_lr": 0, "warmup": 0}
        config = config_from_dict({section: rates})
        assert getattr(config, section).peak_lr == 1e30

    @pytest.mark.parametrize(
        "section, trainer",
        [
            ("denoiser", DenoiserTrainer),
            ("trunk", TrunkFinetuner),
            ("adapter", lambda **rates: LoraTrainer("content", **rates)),
        ],
        ids=["denoiser", "trunk", "adapter"],
    )
    @pytest.mark.parametrize("key, value", BAD_RATES, ids=BAD_RATE_IDS)
    def test_trainers_reject_bad_training_rates(self, section, trainer, key, value):
        with pytest.raises(ConfigInvalid, match=f"^{section}\\.{key} must be"):
            trainer(**{key: value})

    def test_hash_stable_and_sensitive(self):
        a = config_hash(RunConfig())
        b = config_hash(RunConfig())
        assert a == b
        c = config_hash(config_from_dict({"seed": 1}))
        assert a != c


class TestLoadConfig:
    def test_missing_path_uses_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        assert load_config(None).seed == 0

    def test_env_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"seed": 42}))
        monkeypatch.setenv(ENV_CONFIG, str(path))
        assert load_config(None).seed == 42

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config(str(path))

    def test_unreadable_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(str(tmp_path / "absent.json"))
