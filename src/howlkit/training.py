"""Streaming closed-loop training of the neural suppressor modules.

Training mirrors deployment: the suppressor runs inside the simulated
amplification loop, and every ``t_bptt`` frames the magnitude-spectrum L1
loss against the (aligned) target is backpropagated through the recorded
window.  Howling during a scene aborts it on the spot — the half-finished
window is discarded so a diverging filter never writes garbage into the
weights — and non-finite losses or gradients are likewise dropped.

Scenes come from :class:`SceneSampler`, which draws rooms, positions,
reverberation times and loop parameters from seeded disjoint train/test
streams.  Utterances are synthetic by default (:func:`synth_speech`) so the
whole pipeline runs without any speech corpus on disk.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .ahs import KalmanAhs
from .fdkf import FdkfConfig
from .loop import ClosedLoop, HowlDetectorConfig, LoopScene, run_scene
from .metrics import sdr
from .nets import load_params, make_cov_dd_net, make_cov_vv_net, make_mask_net, save_params
from .rooms import Rir, RoomSpec, convolve_batch_peak, generate_rir, sabine_min_rt60
from .signals import StftConfig, StreamingStft, TimeSignal

# The loudspeaker-to-microphone path is kept short enough that the
# suppressor's cross-frame transfer function (num_taps frames of hop samples)
# spans it completely; the talker-to-microphone path may ring longer.
FEEDBACK_RIR_LEN = 1024
NEAR_RIR_LEN = 2048


def synth_speech(seed: int, duration: float, sample_rate: int = 16000) -> TimeSignal:
    """Speech-shaped synthetic utterance: glottal-style pulse train with a
    piecewise pitch contour in 80-300 Hz, three formant resonators, syllabic
    amplitude modulation and occasional pauses.  Peak-normalized to 0.5.

    Deterministic in ``seed``; the first segment is always voiced so a scene
    starts with signal rather than silence.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    fs = sample_rate
    rng = np.random.default_rng([int(seed), 0x5B])
    n = int(round(duration * fs))

    seg = int(0.4 * fs)
    n_seg = -(-n // seg)
    f0s = rng.uniform(80.0, 300.0, n_seg)
    voiced = rng.random(n_seg) > 0.18
    voiced[0] = True
    f0_track = np.repeat(f0s, seg)[:n]
    gate = np.repeat(voiced.astype(float), seg)[:n]
    edge = max(1, int(0.012 * fs))
    gate = np.convolve(gate, np.ones(edge) / edge, mode="same")

    phase = np.cumsum(f0_track / fs)
    pulses = (np.diff(np.floor(phase), prepend=0.0) > 0).astype(float)
    exc = pulses + 0.04 * rng.standard_normal(n)

    centers = rng.uniform([400.0, 1200.0, 2200.0], [800.0, 1800.0, 3000.0])
    widths = rng.uniform(80.0, 160.0, 3)
    for fc, bw in zip(centers, widths):
        r = math.exp(-math.pi * bw / fs)
        a = [1.0, -2.0 * r * math.cos(2.0 * math.pi * fc / fs), r * r]
        exc = lfilter([1.0 - r], a, exc)

    t = np.arange(n) / fs
    am = 0.6 + 0.4 * np.sin(2.0 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0.0, 2.0 * np.pi))
    x = exc * gate * am
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise RuntimeError("synthesized silence; seed/duration degenerate")
    return TimeSignal(0.5 * x / peak, fs)


# ---------------------------------------------------------------------------
# Optimizers


def _flat_items(tree):
    """Yield ('net/param', array) pairs from {net: {param: array}}."""
    for net_name in sorted(tree):
        for key in sorted(tree[net_name]):
            yield f"{net_name}/{key}", tree[net_name][key]


def _clip_global_norm(grads, clip_norm):
    """Scale all gradient arrays in place so the joint norm <= clip_norm."""
    total = 0.0
    for _, g in _flat_items(grads):
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if clip_norm is not None and norm > clip_norm > 0:
        scale = clip_norm / norm
        for _, g in _flat_items(grads):
            g *= scale
    return norm


class SgdOptimizer:
    """Plain gradient descent with optional global-norm clipping."""

    def __init__(self, lr: float = 1e-3, clip_norm: Optional[float] = 5.0):
        self.lr = lr
        self.clip_norm = clip_norm

    def step(self, params, grads):
        _clip_global_norm(grads, self.clip_norm)
        flat_params = dict(_flat_items(params))
        for key, g in _flat_items(grads):
            flat_params[key] -= self.lr * g

    def state_arrays(self):
        return {}

    def load_state_arrays(self, arrays):
        if arrays:
            raise ValueError("plain gradient descent carries no state")


class AdamOptimizer:
    """Adaptive moments with bias correction and global-norm clipping."""

    def __init__(self, lr: float = 1e-3, clip_norm: Optional[float] = 5.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.clip_norm = clip_norm
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        _clip_global_norm(grads, self.clip_norm)
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        flat_params = dict(_flat_items(params))
        for key, g in _flat_items(grads):
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * g * g
            mhat = self.m[key] / b1c
            vhat = self.v[key] / b2c
            flat_params[key] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_arrays(self):
        out = {"t": np.array([self.t], dtype=np.int64)}
        for key, arr in self.m.items():
            out["m:" + key] = arr
        for key, arr in self.v.items():
            out["v:" + key] = arr
        return out

    def load_state_arrays(self, arrays):
        self.t = int(arrays["t"][0])
        self.m = {k[2:]: np.array(v) for k, v in arrays.items() if k.startswith("m:")}
        self.v = {k[2:]: np.array(v) for k, v in arrays.items() if k.startswith("v:")}


def make_optimizer(cfg):
    if cfg.optimizer == "adam":
        return AdamOptimizer(lr=cfg.lr, clip_norm=cfg.clip_norm,
                             beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.opt_eps)
    return SgdOptimizer(lr=cfg.lr, clip_norm=cfg.clip_norm)


# ---------------------------------------------------------------------------
# Configuration and scene sampling


def _check_range(name, rng_pair, lo=None, hi=None):
    a, b = float(rng_pair[0]), float(rng_pair[1])
    if not a <= b:
        raise ValueError(f"{name} must be (low, high) with low <= high, got {rng_pair}")
    if lo is not None and a < lo:
        raise ValueError(f"{name} low bound {a} below minimum {lo}")
    if hi is not None and b > hi:
        raise ValueError(f"{name} high bound {b} above maximum {hi}")


@dataclass
class TrainConfig:
    """Knobs for streaming closed-loop training (desk-scale defaults)."""

    epochs: int = 10
    batch_size: int = 8
    scenes_per_epoch: int = 32
    duration: float = 4.0          # seconds of audio per training scene
    t_bptt: int = 32               # frames per truncated-BPTT window
    lr: float = 1e-3
    lr_decay: float = 1.0          # per-epoch multiplier on the learning rate
    clip_norm: Optional[float] = 5.0
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    opt_eps: float = 1e-8
    seed: int = 0
    gain_range: tuple = (1.0, 3.0)
    delay_range: tuple = (0.15, 0.25)
    rt60_range: tuple = (0.15, 0.6)
    coupling_range: tuple = (2.0, 4.0)
    mask_scope: str = "everywhere"
    stop_grad_filter: bool = False
    validation_scenes: int = 4
    validation_gain: float = 2.0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "scenes_per_epoch", "t_bptt"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("duration", "lr", "beta1", "beta2", "opt_eps", "validation_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive or None")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        _check_range("gain_range", self.gain_range, lo=0.0)
        _check_range("delay_range", self.delay_range, lo=0.0)
        _check_range("rt60_range", self.rt60_range, lo=0.0, hi=0.6)
        _check_range("coupling_range", self.coupling_range, lo=0.0)
        if self.validation_scenes < 0:
            raise ValueError("validation_scenes must be nonnegative")


_SPLIT_TAGS = {"train": 1, "test": 2}


class SceneSampler:
    """Seeded generator of amplification scenes with disjoint splits.

    Scene ``index`` of a split is fully determined by ``(seed, split,
    index)``; the train and test streams use distinct seed components, so
    the pools never overlap.  Rooms are shoeboxes with random geometry, the
    talker and loudspeaker paths share the room, and the loudspeaker path is
    truncated to FEEDBACK_RIR_LEN taps and rescaled so its DC gain equals a
    sampled coupling strength — the physical knob that sets how hot the
    amplification loop runs relative to the clip level.

    ``utterances``: None for synthetic speech, else a non-empty list of
    TimeSignals to crop from.
    """

    def __init__(self, seed: int = 0, split: str = "train", duration: float = 4.0,
                 sample_rate: int = 16000, utterances=None,
                 gain_range=(1.0, 3.0), delay_range=(0.15, 0.25),
                 rt60_range=(0.15, 0.6), coupling_range=(2.0, 4.0)):
        if split not in _SPLIT_TAGS:
            raise ValueError(f"split must be one of {sorted(_SPLIT_TAGS)}, got {split!r}")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if utterances is not None:
            if len(utterances) == 0:
                raise ValueError("utterance pool is empty")
            for utt in utterances:
                if utt.sample_rate != sample_rate:
                    raise ValueError("utterance sample rate differs from the sampler's")
        _check_range("gain_range", gain_range, lo=0.0)
        _check_range("delay_range", delay_range, lo=0.0)
        _check_range("rt60_range", rt60_range, lo=0.0, hi=0.6)
        _check_range("coupling_range", coupling_range, lo=0.0)
        self.seed = int(seed)
        self.split = split
        self.duration = float(duration)
        self.sample_rate = int(sample_rate)
        self.utterances = list(utterances) if utterances is not None else None
        self.gain_range = tuple(gain_range)
        self.delay_range = tuple(delay_range)
        self.rt60_range = tuple(rt60_range)
        self.coupling_range = tuple(coupling_range)

    @classmethod
    def from_config(cls, cfg: TrainConfig, split: str, utterances=None,
                    duration: Optional[float] = None, sample_rate: int = 16000):
        return cls(seed=cfg.seed, split=split,
                   duration=cfg.duration if duration is None else duration,
                   sample_rate=sample_rate, utterances=utterances,
                   gain_range=cfg.gain_range, delay_range=cfg.delay_range,
                   rt60_range=cfg.rt60_range, coupling_range=cfg.coupling_range)

    def scene_id(self, index: int) -> str:
        return f"{self.split}:{index}"

    def _utterance(self, rng, n: int) -> np.ndarray:
        if self.utterances is None:
            return synth_speech(int(rng.integers(2**31)), n / self.sample_rate,
                                self.sample_rate).samples
        pick = self.utterances[int(rng.integers(len(self.utterances)))].samples
        if len(pick) <= n:
            out = np.zeros(n)
            out[: len(pick)] = pick
            return out
        start = int(rng.integers(len(pick) - n + 1))
        return pick[start: start + n].copy()

    def scene(self, index: int, gain: Optional[float] = None) -> LoopScene:
        """Build scene ``index``; ``gain`` overrides the sampled loop gain
        without disturbing any other draw."""
        fs = self.sample_rate
        rng = np.random.default_rng([self.seed, _SPLIT_TAGS[self.split], int(index)])
        dims = rng.uniform((4.0, 3.0, 2.5), (8.0, 6.0, 3.5))

        def draw_pos():
            return dims * rng.uniform(0.12, 0.88, 3)

        mic = draw_pos()
        spk = draw_pos()
        while np.linalg.norm(spk - mic) < 1.0:
            spk = draw_pos()
        talker = draw_pos()
        while np.linalg.norm(talker - mic) < 0.5:
            talker = draw_pos()

        rt60 = rng.uniform(*self.rt60_range)
        # Sabine puts a floor on how dead a room of this size can be; lift the
        # draw onto the feasible side (with some margin) instead of rejecting.
        rt60 = max(rt60, 1.05 * sabine_min_rt60(dims))
        coupling = rng.uniform(*self.coupling_range)
        delay = rng.uniform(*self.delay_range)

        fb = generate_rir(RoomSpec(tuple(dims), tuple(spk), tuple(mic), rt60,
                                   sample_rate=fs, max_rir_len=FEEDBACK_RIR_LEN))
        fb = Rir(fb.taps * (coupling / np.sum(fb.taps)), fs)
        near = generate_rir(RoomSpec(tuple(dims), tuple(talker), tuple(mic), rt60,
                                     sample_rate=fs, max_rir_len=NEAR_RIR_LEN))

        dry = self._utterance(rng, int(round(self.duration * fs)))
        target_peak = convolve_batch_peak(dry, near.taps)
        if target_peak > 0:
            dry = dry * (0.5 / target_peak)

        loop_gain = float(rng.uniform(*self.gain_range)) if gain is None else float(gain)
        return LoopScene(TimeSignal(dry, fs), fb, gain=loop_gain, delay=float(delay),
                         near_rir=near, seed=int(index))

    def scenes(self, count: int, gain: Optional[float] = None):
        return [self.scene(i, gain=gain) for i in range(count)]


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainEvent:
    """Record of one training scene.

    ``loss`` is the mean over this scene's completed finite-loss windows
    (0.0 if the scene aborted before any window closed).  ``howl_sample``
    is the detector's firing index when ``howl_abort`` is set.
    """

    epoch: int
    scene_id: str
    frames: int
    loss: float
    howl_abort: bool
    howl_sample: Optional[int]
    nan_events: int
    clamp_events: int

    def to_json(self) -> str:
        return json.dumps({
            "epoch": self.epoch, "scene": self.scene_id, "frames": self.frames,
            "loss": self.loss, "howl_abort": self.howl_abort,
            "howl_sample": self.howl_sample, "nan_events": self.nan_events,
            "clamp_events": self.clamp_events,
        })


def build_ahs(nets, scene, stft_cfg: Optional[StftConfig] = None,
              fdkf_cfg: Optional[FdkfConfig] = None, mask_scope: str = "everywhere",
              stop_grad_filter: bool = False) -> KalmanAhs:
    """Wrap shared nets in a fresh suppressor sized for one scene, or with
    one row per scene of a list."""
    return KalmanAhs.for_scene(
        scene, stft_cfg=stft_cfg, fdkf_cfg=fdkf_cfg,
        mask_net=nets.get("mask"), vv_net=nets.get("vv"), dd_net=nets.get("dd"),
        mask_scope=mask_scope, stop_grad_filter=stop_grad_filter,
    )


def _net_params(nets):
    return {name: net.params for name, net in nets.items()}


def _assert_finite_weights(nets):
    for name, net in nets.items():
        for key, arr in net.params.items():
            if not np.all(np.isfinite(arr)):
                raise RuntimeError(f"non-finite weight in net {name!r} parameter {key!r}")


def _finite_rows(losses, grads):
    """Per row of a window: is its loss and every gradient finite?"""
    ok = np.isfinite(losses)
    for _, g in _flat_items(grads):
        ok &= np.isfinite(g).reshape(len(g), -1).all(axis=1)
    return ok


def _average_grads(grad_list):
    out = {}
    for grads in grad_list:
        for net_name, tree in grads.items():
            slot = out.setdefault(net_name, {})
            for key, g in tree.items():
                if key in slot:
                    slot[key] += g
                else:
                    slot[key] = g.copy()
    scale = 1.0 / len(grad_list)
    for tree in out.values():
        for key in tree:
            tree[key] *= scale
    return out


def _train_batch(nets, scenes, cfg: TrainConfig, optimizer, epoch: int, scene_ids,
                 stft_cfg: Optional[StftConfig] = None, fdkf_cfg: Optional[FdkfConfig] = None,
                 det: Optional[HowlDetectorConfig] = None):
    """Run a batch of equally long scenes as one stack, with
    window-synchronized updates.

    Every scene is one row of a single closed loop and suppressor, so all
    rows advance in one hop and close their windows together.  Each
    window's per-row gradients are averaged over the rows in scene order
    and applied as one optimizer step.  A row that howls, or whose window
    loss or gradients are non-finite, is cut out of the stack on the spot
    without contributing that window.
    """
    ahs = build_ahs(nets, scenes, stft_cfg=stft_cfg, fdkf_cfg=fdkf_cfg,
                    mask_scope=cfg.mask_scope, stop_grad_filter=cfg.stop_grad_filter)
    hop = ahs.cfg.hop
    for scene in scenes:
        if cfg.t_bptt * hop > scene.delay_samples:
            raise ValueError(
                f"t_bptt window ({cfg.t_bptt} frames x {hop} samples) exceeds the "
                f"loop delay ({scene.delay_samples} samples); in-window feedback "
                "would be ignored by the window gradients")
    engine = ClosedLoop(scenes, ahs, det=det, frame_size=hop)
    target_stft = StreamingStft(ahs.cfg, len(scenes))
    live = list(range(len(scenes)))  # scene index of each remaining row
    losses = [[] for _ in scenes]
    frames, clamps = [0] * len(scenes), [0] * len(scenes)
    howl_sample, nan_events = [None] * len(scenes), [0] * len(scenes)
    params = _net_params(nets)

    def drop(gone):
        for row in gone:
            frames[live[row]] = engine.frames_done
            clamps[live[row]] = int(ahs.filt.clamps[row])
        kept = [row for row in range(len(live)) if row not in gone]
        live[:] = [live[row] for row in kept]
        if live:
            engine.keep(kept)  # also cuts the suppressor and its open window
            target_stft.keep(kept)
            window[:] = [mags[kept] for mags in window]

    window = []  # target magnitudes of the open window, one (rows, bins) per frame
    if engine.total_frames:
        ahs.begin_window()
    while live and engine.frames_done < engine.total_frames:
        engine.step_frame()
        window.append(np.abs(target_stft.push(engine.s_frame)))
        howled = [row for row, at in enumerate(engine.howl_event) if at is not None]
        if howled:
            # a diverging suppressor must not contribute a weight update: its
            # half-built window goes with its row
            for row in howled:
                howl_sample[live[row]] = engine.howl_event[row]
            drop(howled)
        if not live:
            break
        ended = engine.frames_done >= engine.total_frames
        if ahs.window_frames < cfg.t_bptt and not ended:
            continue
        window_losses, grads = ahs.end_window(np.array(window))
        window = []
        ok = _finite_rows(window_losses, grads)
        good, bad = np.flatnonzero(ok).tolist(), np.flatnonzero(~ok).tolist()
        for row in good:
            losses[live[row]].append(float(window_losses[row]))
        if good:
            # each row's gradients are views into the stacks
            optimizer.step(params, _average_grads(
                [{name: {key: g[row] for key, g in tree.items()} for name, tree in grads.items()}
                 for row in good]))
            _assert_finite_weights(nets)
        del grads  # free the stacks before the next window records
        for row in bad:
            nan_events[live[row]] += 1
        if bad:
            drop(bad)
        if live and not ended:
            ahs.begin_window()
    drop(range(len(live)))
    return [TrainEvent(epoch=epoch, scene_id=sid, frames=frames[i],
                       loss=float(np.mean(losses[i])) if losses[i] else 0.0,
                       howl_abort=howl_sample[i] is not None, howl_sample=howl_sample[i],
                       nan_events=nan_events[i], clamp_events=clamps[i])
            for i, sid in enumerate(scene_ids)]


def train_scene(nets, scene: LoopScene, cfg: TrainConfig, optimizer=None):
    """One streaming training pass over a single scene.

    Returns ``(nets, TrainEvent)``; the nets are updated in place, one
    optimizer step per completed window.
    """
    if optimizer is None:
        optimizer = make_optimizer(cfg)
    events = _train_batch(nets, [scene], cfg, optimizer, epoch=0,
                          scene_ids=[f"scene:{scene.seed}"])
    return nets, events[0]


def _validate(nets, scenes, cfg: TrainConfig, stft_cfg: Optional[StftConfig] = None,
              fdkf_cfg: Optional[FdkfConfig] = None,
              det: Optional[HowlDetectorConfig] = None) -> float:
    """Mean SDR of the nets over held-out scenes, run forward as one stack."""
    ahs = build_ahs(nets, scenes, stft_cfg=stft_cfg, fdkf_cfg=fdkf_cfg,
                    mask_scope=cfg.mask_scope)
    results = run_scene(scenes, ahs, det=det, frame_size=ahs.cfg.hop)
    return float(np.mean([sdr(res.s, res.s_hat_aligned()) for res in results]))


def save_checkpoint(nets, path: str, optimizer=None, meta=None):
    """Write nets (one file each), optional optimizer state, and metadata."""
    os.makedirs(path, exist_ok=True)
    for name, net in nets.items():
        save_params(net, os.path.join(path, f"{name}.net"))
    if optimizer is not None:
        state = optimizer.state_arrays()
        if state:
            np.savez(os.path.join(path, "optimizer.npz"), **state)
    record = {"nets": sorted(nets)}
    if meta:
        record.update(meta)
    with open(os.path.join(path, "checkpoint.json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str):
    """Load nets saved by save_checkpoint; returns {name: LstmNet}."""
    manifest = os.path.join(path, "checkpoint.json")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no checkpoint manifest at {manifest}")
    with open(manifest) as f:
        record = json.load(f)
    return {name: load_params(os.path.join(path, f"{name}.net"))
            for name in record["nets"]}


def train(nets, sampler: SceneSampler, cfg: TrainConfig, val_sampler: Optional[SceneSampler] = None,
          log_path: Optional[str] = None, checkpoint_dir: Optional[str] = None,
          stft_cfg: Optional[StftConfig] = None, fdkf_cfg: Optional[FdkfConfig] = None,
          det: Optional[HowlDetectorConfig] = None):
    """Full training run: epochs x scenes_per_epoch scenes in batches.

    Fresh scenes are drawn every epoch (index = epoch * scenes_per_epoch + j,
    so no scene repeats).  After each epoch the nets are scored by mean SDR
    on fixed held-out scenes from ``val_sampler`` when given; the best
    checkpoint is kept under ``checkpoint_dir`` and reloaded into the nets
    at the end.  ``stft_cfg``, ``fdkf_cfg`` and ``det`` set the suppressor's
    transform and filter and the howling test (library defaults when
    omitted).  Returns ``(nets, events)``.
    """
    if not nets:
        raise ValueError("no nets to train")
    if cfg.scenes_per_epoch < 1:
        raise ValueError("empty scene pool: scenes_per_epoch must be at least 1")
    optimizer = make_optimizer(cfg)
    events = []
    # line-buffered so the log can be tailed while training runs
    log_file = open(log_path, "w", buffering=1) if log_path else None
    best_sdr = -np.inf
    best_dir = os.path.join(checkpoint_dir, "best") if checkpoint_dir else None
    val_scenes = None  # the same held-out scenes every epoch, built once
    try:
        for epoch in range(cfg.epochs):
            optimizer.lr = cfg.lr * cfg.lr_decay ** epoch
            indices = [epoch * cfg.scenes_per_epoch + j for j in range(cfg.scenes_per_epoch)]
            for lo in range(0, len(indices), cfg.batch_size):
                chunk = indices[lo: lo + cfg.batch_size]
                scenes = [sampler.scene(i) for i in chunk]
                ids = [sampler.scene_id(i) for i in chunk]
                for event in _train_batch(nets, scenes, cfg, optimizer, epoch, ids,
                                          stft_cfg=stft_cfg, fdkf_cfg=fdkf_cfg, det=det):
                    events.append(event)
                    if log_file:
                        log_file.write(event.to_json() + "\n")
            if val_sampler is not None and cfg.validation_scenes > 0:
                if val_scenes is None:
                    val_scenes = [val_sampler.scene(i, gain=cfg.validation_gain)
                                  for i in range(cfg.validation_scenes)]
                score = _validate(nets, val_scenes, cfg, stft_cfg=stft_cfg,
                                  fdkf_cfg=fdkf_cfg, det=det)
                if log_file:
                    log_file.write(json.dumps({"epoch": epoch, "val_sdr": score}) + "\n")
                if score > best_sdr:
                    best_sdr = score
                    if best_dir:
                        save_checkpoint(nets, best_dir, optimizer=optimizer,
                                        meta={"epoch": epoch, "val_sdr": score})
        if checkpoint_dir:
            save_checkpoint(nets, os.path.join(checkpoint_dir, "final"), optimizer=optimizer,
                            meta={"epoch": cfg.epochs - 1, "val_sdr": best_sdr if np.isfinite(best_sdr) else None})
        if best_dir and os.path.exists(os.path.join(best_dir, "checkpoint.json")):
            best = load_checkpoint(best_dir)
            for name, net in best.items():
                for key in nets[name].params:
                    nets[name].params[key][...] = net.params[key]
    finally:
        if log_file:
            log_file.close()
    return nets, events


def make_default_nets(num_bins: int = 65, mask_hidden=(32, 32), seed: int = 0):
    """The three-net bundle used by the neural suppressor."""
    return {
        "mask": make_mask_net(num_bins, hidden=mask_hidden, seed=seed),
        "vv": make_cov_vv_net(num_bins, seed=seed + 1),
        "dd": make_cov_dd_net(num_bins, seed=seed + 2),
    }
