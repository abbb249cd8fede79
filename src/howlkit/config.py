"""Run configuration for the command-line tools.

A run config is a JSON object with one section per library object: each
section is exactly the keyword arguments of one constructor, and every value
has the library default, so an empty file (or no file at all) reproduces the
stock pipeline.  Unknown sections or keys are rejected outright, and so
is a value of another JSON type than its default (any number where the
default is a number) or a non-finite number — a typo should fail loudly,
not silently fall back.

Sections, with the subcommands that read them:
    seed      master seed: the scenes of simulate, suppress --synthetic and
              eval, and the rooms of rir
    stft      framing (signals.StftConfig); every subcommand
    fdkf      filter taps and recursion constants (fdkf.FdkfConfig), one
              recursion per stft bin.  stft + fdkf are the suppressor spec
              (RunConfig.suppressor): checkpoints record it, and eval and
              suppress refuse a checkpoint recorded under another
    detector  howling test (loop.HowlDetectorConfig); every closed loop
    sampler   scene length and sampling ranges (training.SceneSampler):
              simulate, suppress --synthetic, eval and train (which takes
              its scene length from trainer.duration); rir reads rt60_range
    loop      the loop suppress runs in.  gain: its loop gain when --gain
              is not given (simulate and eval sample theirs).  delay, sat:
              the loop suppress --in mirrors (synthetic scenes draw their
              delay from sampler.delay_range and clip at 1.0)
    neural    make_default_nets' mask_hidden and seed; train, and
              suppress --variant neuralkalman without a checkpoint
    trainer   training.TrainConfig; train draws its scenes with
              trainer.seed and its validation scenes with trainer.seed + 17
    paths     out_dir, checkpoint, corpus_dir

Keys that moved or went exit 2 as unknown keys.  Moved: loop.duration is
sampler.duration, and trainer.{gain,delay,rt60,coupling}_range are
sampler.*_range.  Gone: trainer.{optimizer,beta1,beta2,opt_eps}, as training
always runs Adam with fixed moment constants, and trainer.stop_grad_filter
and neural.stop_grad_filter, as the window gradient always runs through the
filter recursion.
"""

import copy
import json
import math
from dataclasses import asdict

from .ahs import SuppressorSpec
from .fdkf import FdkfConfig
from .loop import HowlDetectorConfig
from .signals import ConfigError, StftConfig
from .training import SceneSampler, TrainConfig, make_default_nets


def default_config() -> dict:
    """The full schema with library defaults, JSON-serializable."""
    sampler = SceneSampler()
    ranges = ("gain_range", "delay_range", "rt60_range", "coupling_range")
    return {
        "seed": 0,
        "stft": asdict(StftConfig()),
        "fdkf": asdict(FdkfConfig()),
        "detector": asdict(HowlDetectorConfig()),
        "sampler": {"duration": sampler.duration,
                    **{key: list(getattr(sampler, key)) for key in ranges}},
        "loop": {"gain": 2.0, "delay": 0.2, "sat": 1.0},
        "neural": {"mask_hidden": [32, 32], "seed": 0},
        "trainer": asdict(TrainConfig()),
        "paths": {"out_dir": "runs", "checkpoint": None, "corpus_dir": None},
    }


# keys that may be null, with a value of the type they take otherwise
_NULLABLE = {"trainer.clip_norm": 0.0, "paths.checkpoint": "", "paths.corpus_dir": ""}


def _fits(default, value) -> bool:
    """Is ``value`` of the JSON type of ``default``?  Any number fits a
    number, and a list fits when each item fits the default's first."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], item) for item in value)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path!r} must be an object")
            _merge(base[key], value, prefix=f"{path}.")
            continue
        if path in _NULLABLE:
            ok = value is None or _fits(_NULLABLE[path], value)
        else:
            ok = _fits(base[key], value)
        if not ok:
            raise ConfigError(f"config key {path!r} takes a value like {base[key]!r}, "
                              f"got {value!r}")
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{path} must be finite, got {value!r}")
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
        self.sampler("train")
        loop = self.data["loop"]
        if not (math.isfinite(loop["gain"]) and loop["gain"] >= 0):
            raise ConfigError(f"loop.gain must be finite and >= 0, got {loop['gain']}")
        for key in ("delay", "sat"):
            if not (math.isfinite(loop[key]) and loop[key] > 0):
                raise ConfigError(f"loop.{key} must be finite and > 0, got {loop[key]}")

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
        try:
            return TrainConfig(**self.data["trainer"])
        except ValueError as exc:
            raise ConfigError(f"trainer: {exc}") from exc

    def sampler(self, split: str, duration: float = None, seed: int = None,
                utterances=None) -> SceneSampler:
        """Scene sampler over the sampler section, keyed by the master seed
        unless ``seed`` is given; ``duration`` overrides the section's."""
        sec = self.data["sampler"]
        if duration is not None:
            sec = dict(sec, duration=duration)
        try:
            return SceneSampler(seed=self.seed if seed is None else seed, split=split,
                                sample_rate=self.suppressor().stft.sample_rate,
                                utterances=utterances, **sec)
        except ValueError as exc:
            raise ConfigError(f"sampler: {exc}") from exc

    def nets(self) -> dict:
        return make_default_nets(num_bins=self.suppressor().stft.num_bins, **self.data["neural"])

    def loop_knobs(self) -> dict:
        return dict(self.data["loop"])

    def paths(self) -> dict:
        return dict(self.data["paths"])
