"""Run-config schema: defaults, validation, round trips, builders."""

import json
import math
from dataclasses import asdict

import pytest

from howlkit.ahs import SuppressorSpec
from howlkit.config import RunConfig, default_config
from howlkit.fdkf import FdkfConfig
from howlkit.loop import HowlDetectorConfig
from howlkit.signals import ConfigError, StftConfig
from howlkit.training import SceneSampler, TrainConfig


def test_empty_config_is_all_defaults():
    assert RunConfig().to_dict() == default_config()
    assert RunConfig({}).to_dict() == default_config()


def test_defaults_equal_module_defaults():
    d = default_config()
    assert d["stft"] == asdict(StftConfig())
    assert d["fdkf"] == asdict(FdkfConfig())
    assert d["detector"] == asdict(HowlDetectorConfig())
    assert d["trainer"] == asdict(TrainConfig())
    s = SceneSampler()
    assert d["sampler"] == {"duration": s.duration, "gain_range": list(s.gain_range),
                            "delay_range": list(s.delay_range),
                            "rt60_range": list(s.rt60_range),
                            "coupling_range": list(s.coupling_range)}
    assert d["neural"] == {"mask_hidden": [32, 32], "seed": 0}
    assert d["loop"] == {"gain": 2.0, "delay": 0.2, "sat": 1.0}


def test_json_round_trip_is_identity():
    cfg = RunConfig({"seed": 9, "stft": {"hop": 32, "frame_len": 64},
                     "fdkf": {"num_taps": 8}})
    again = RunConfig(json.loads(cfg.to_json()))
    assert again.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("data, dotted", [
    ({"stftt": {}}, "stftt"),
    ({"stft": {"hopp": 1}}, "stft.hopp"),
    ({"trainer": {"learning_rate": 0.1}}, "trainer.learning_rate"),
    ({"paths": {"输出": "x"}}, "paths"),
    ({"neural": {"mask_scope": "everywhere"}}, "neural.mask_scope"),
    ({"fdkf": {"num_bins": 65}}, "fdkf.num_bins"),  # the filter takes the stft's bins
    # moved keys: sampler.duration, sampler.*_range
    ({"loop": {"duration": 4.0}}, "loop.duration"),
    ({"trainer": {"gain_range": [1.0, 3.0]}}, "trainer.gain_range"),
    ({"trainer": {"delay_range": [0.15, 0.25]}}, "trainer.delay_range"),
    ({"trainer": {"rt60_range": [0.15, 0.6]}}, "trainer.rt60_range"),
    ({"trainer": {"coupling_range": [2.0, 4.0]}}, "trainer.coupling_range"),
    ({"neural": {"stop_grad_filter": False}}, "neural.stop_grad_filter"),
    # gone: training runs Adam with fixed constants, through the filter
    ({"trainer": {"optimizer": "sgd"}}, "trainer.optimizer"),
    ({"trainer": {"beta1": 0.9}}, "trainer.beta1"),
    ({"trainer": {"beta2": 0.999}}, "trainer.beta2"),
    ({"trainer": {"opt_eps": 1e-8}}, "trainer.opt_eps"),
    ({"trainer": {"stop_grad_filter": False}}, "trainer.stop_grad_filter"),
])
def test_unknown_keys_rejected_with_dotted_path(data, dotted):
    with pytest.raises(ConfigError, match="unknown config key: '" + dotted.replace(".", r"\.")):
        RunConfig(data)


@pytest.mark.parametrize("data, dotted", [
    ({"sampler": {"duration": "4"}}, "sampler.duration"),
    ({"loop": {"gain": "2"}}, "loop.gain"),
    ({"trainer": {"epochs": "3"}}, "trainer.epochs"),
    ({"neural": {"mask_hidden": 8}}, "neural.mask_hidden"),
    ({"neural": {"mask_hidden": [8, 4.5]}}, "neural.mask_hidden"),
    ({"trainer": {"epochs": 3.0}}, "trainer.epochs"),
    ({"trainer": {"clip_norm": "5"}}, "trainer.clip_norm"),  # may be null, not a string
    ({"sampler": {"gain_range": [1.0, None]}}, "sampler.gain_range"),
    ({"loop": {"sat": True}}, "loop.sat"),
    ({"loop": {"gain": None}}, "loop.gain"),
    ({"paths": {"out_dir": None}}, "paths.out_dir"),
    ({"stft": {"window": 3}}, "stft.window"),
])
def test_values_of_another_type_are_rejected(data, dotted):
    with pytest.raises(ConfigError, match=dotted.replace(".", r"\.")):
        RunConfig(data)


def test_values_of_the_default_type_are_accepted():
    cfg = RunConfig({"loop": {"gain": 3}, "sampler": {"gain_range": [1, 2.5]},
                     "trainer": {"clip_norm": None, "lr": 1},
                     "paths": {"checkpoint": "ckpt", "corpus_dir": None}})
    assert cfg.loop_knobs()["gain"] == 3
    assert cfg.trainer().clip_norm is None
    assert cfg.paths()["checkpoint"] == "ckpt"


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="stft.*object"):
        RunConfig({"stft": 3})


def test_suppressor_spec_is_the_stft_and_fdkf_sections():
    assert RunConfig().suppressor() == SuppressorSpec()
    cfg = RunConfig({"stft": {"frame_len": 64, "hop": 32}, "fdkf": {"num_taps": 8}})
    assert cfg.suppressor() == SuppressorSpec(StftConfig(frame_len=64, hop=32),
                                              FdkfConfig(num_taps=8))
    with pytest.raises(ValueError, match="num_taps"):
        RunConfig({"fdkf": {"num_taps": 0}})


def test_trainer_validation_becomes_config_error():
    with pytest.raises(ConfigError, match="trainer: epochs"):
        RunConfig({"trainer": {"epochs": 0}})
    with pytest.raises(ConfigError, match="trainer: duration"):
        RunConfig({"trainer": {"duration": 0.0}})


def test_sampler_validation_becomes_config_error():
    with pytest.raises(ConfigError, match="sampler: rt60_range high bound 0.9"):
        RunConfig({"sampler": {"rt60_range": [0.1, 0.9]}})
    with pytest.raises(ConfigError, match=r"sampler: delay_range must be a \(low, high\) pair"):
        RunConfig({"sampler": {"delay_range": [0.2]}})
    with pytest.raises(ConfigError, match="sampler: scene duration 0.005 s is 80 samples"):
        RunConfig({"sampler": {"duration": 0.005}})
    with pytest.raises(ConfigError, match="sampler: duration must be positive"):
        RunConfig().sampler("test", duration=0.0)


def test_loop_knobs_validated():
    for key, bad in (("gain", (-1.0, math.nan, math.inf)),
                     ("delay", (0.0, -0.1, math.nan, math.inf)),
                     ("sat", (0.0, -1.0, math.nan, math.inf))):
        for value in bad:
            with pytest.raises(ConfigError, match=f"loop.{key} must be finite"):
                RunConfig({"loop": {key: value}})
    assert RunConfig({"loop": {"gain": 0.0, "sat": 1e-6}}).loop_knobs()["gain"] == 0.0


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(RunConfig({"seed": 4}).to_json())
    assert RunConfig.from_file(str(path)).seed == 4


def test_from_file_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        RunConfig.from_file(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        RunConfig.from_file(str(path))


def test_sampler_uses_master_seed_and_sampler_section():
    cfg = RunConfig({"seed": 5, "sampler": {"duration": 0.75, "coupling_range": [2.5, 3.0]}})
    s = cfg.sampler("test")
    assert s.seed == 5
    assert s.split == "test"
    assert s.duration == 0.75
    assert s.coupling_range == (2.5, 3.0)
    assert s.gain_range == SceneSampler().gain_range
    # explicit arguments win (train's pools, --duration)
    assert cfg.sampler("test", duration=1.0).duration == 1.0
    assert cfg.sampler("test", seed=22).seed == 22
    assert cfg.data["sampler"]["duration"] == 0.75


def test_nets_respect_neural_section():
    cfg = RunConfig({"neural": {"mask_hidden": [8], "seed": 3}})
    nets = cfg.nets()
    assert sorted(nets) == ["dd", "mask", "vv"]
    assert nets["mask"].hidden_sizes == (8,)
    # seeded init is reproducible
    again = RunConfig({"neural": {"mask_hidden": [8], "seed": 3}}).nets()
    for name in nets:
        for key in nets[name].params:
            assert (nets[name].params[key] == again[name].params[key]).all()
