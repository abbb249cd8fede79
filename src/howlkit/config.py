"""Run configuration for the command-line tools.

A run config is a JSON object with one section per subsystem; every value
has a default equal to the corresponding library default, so an empty file
(or no file at all) reproduces the stock pipeline.  Unknown sections or keys
are rejected outright — a typo should fail loudly, not silently fall back.

Sections:
    seed      master seed for scene sampling and artifact generation
    stft      framing (see signals.StftConfig)
    fdkf      filter taps and recursion constants (fdkf.FdkfConfig), one
              recursion per stft bin.  stft + fdkf are the suppressor spec
              (RunConfig.suppressor): checkpoints record it, and eval and
              suppress refuse a checkpoint recorded under another
    detector  howling test (loop.HowlDetectorConfig)
    loop      scalar scene knobs.  gain: suppress's loop gain when --gain
              is not given (simulate and eval sample theirs).  delay, sat:
              the loop suppress --in mirrors (synthetic scenes draw their
              delay from trainer.delay_range and clip at 1.0).  duration:
              scene length of simulate, suppress --synthetic and eval when
              --duration is not given.
    neural    mask network size and wiring: mask_hidden, stop_grad_filter,
              seed
    trainer   training hyperparameters and sampling ranges
              (training.TrainConfig, minus the wiring key above)
    paths     out_dir, checkpoint, corpus_dir
"""

import copy
import json
from dataclasses import asdict, replace

from .ahs import SuppressorSpec
from .fdkf import FdkfConfig
from .loop import HowlDetectorConfig
from .signals import ConfigError, StftConfig
from .training import SceneSampler, TrainConfig, make_default_nets


def default_config() -> dict:
    """The full schema with library defaults, JSON-serializable."""
    trainer = asdict(TrainConfig())
    neural = {
        "mask_hidden": [32, 32],
        "stop_grad_filter": trainer.pop("stop_grad_filter"),
        "seed": 0,
    }
    for key, val in trainer.items():
        if isinstance(val, tuple):
            trainer[key] = list(val)
    return {
        "seed": 0,
        "stft": asdict(StftConfig()),
        "fdkf": asdict(FdkfConfig()),
        "detector": asdict(HowlDetectorConfig()),
        "loop": {"gain": 2.0, "delay": 0.2, "sat": 1.0, "duration": 4.0},
        "neural": neural,
        "trainer": trainer,
        "paths": {"out_dir": "runs", "checkpoint": None, "corpus_dir": None},
    }


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path!r} must be an object")
            _merge(base[key], value, prefix=f"{path}.")
        else:
            base[key] = value
    return base


class RunConfig:
    """Validated run configuration with builders for the library objects."""

    def __init__(self, data: dict = None):
        self.data = _merge(default_config(), data or {})
        # constructing the section objects validates their values eagerly
        self.suppressor()
        self.detector()
        self.trainer()
        loop = self.data["loop"]
        if loop["gain"] < 0 or loop["delay"] <= 0 or loop["duration"] <= 0:
            raise ConfigError("loop gain must be >= 0 and delay/duration > 0")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        return cls(data)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    # ------------------------------------------------------------------
    # section builders

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def suppressor(self) -> SuppressorSpec:
        """The transform and filter of every suppressor this config builds."""
        return SuppressorSpec(StftConfig(**self.data["stft"]), FdkfConfig(**self.data["fdkf"]))

    def detector(self) -> HowlDetectorConfig:
        return HowlDetectorConfig(**self.data["detector"])

    def trainer(self) -> TrainConfig:
        sec = dict(self.data["trainer"])
        for key, val in sec.items():
            if isinstance(val, list):
                sec[key] = tuple(val)
        neural = self.data["neural"]
        try:
            return TrainConfig(stop_grad_filter=neural["stop_grad_filter"], **sec)
        except ValueError as exc:
            raise ConfigError(f"trainer: {exc}") from exc

    def sampler(self, split: str, duration: float = None, seed: int = None,
                utterances=None) -> SceneSampler:
        """Scene sampler over the trainer's ranges, keyed by the master seed."""
        trainer = replace(self.trainer(), seed=self.seed if seed is None else seed)
        return SceneSampler.from_config(trainer, split, utterances=utterances, duration=duration,
                                        sample_rate=self.suppressor().stft.sample_rate)

    def nets(self, seed: int = None) -> dict:
        neural = self.data["neural"]
        return make_default_nets(
            num_bins=self.suppressor().stft.num_bins,
            mask_hidden=tuple(neural["mask_hidden"]),
            seed=neural["seed"] if seed is None else seed,
        )

    def loop_knobs(self) -> dict:
        return dict(self.data["loop"])

    def paths(self) -> dict:
        return dict(self.data["paths"])
