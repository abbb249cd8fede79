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
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .ahs import KalmanAhs, SuppressorSpec
from .loop import ClosedLoop, HowlDetectorConfig, LoopScene, run_scene
from .metrics import sdr
from .nets import load_params, make_cov_dd_net, make_cov_vv_net, make_mask_net, save_params
from .rooms import Rir, RoomSpec, convolve_batch_peak, generate_rir, sabine_min_rt60
from .signals import ConfigError, StreamingStft, TimeSignal

# The loudspeaker-to-microphone path is kept short enough that the
# suppressor's cross-frame transfer function (num_taps frames of hop samples)
# spans it completely; the talker-to-microphone path may ring longer.
FEEDBACK_RIR_LEN = 1024
NEAR_RIR_LEN = 2048


def _check_synth_duration(duration: float, sample_rate: int):
    """(samples, gate edge) of a synthetic utterance, or ValueError when
    ``duration`` is shorter than the 12 ms over which its voicing gate is
    smoothed."""
    n, edge = int(round(duration * sample_rate)), max(1, int(0.012 * sample_rate))
    if n < edge:
        raise ValueError(f"scene duration {duration:g} s is {n} samples, shorter than "
                         f"the {edge} samples synthetic speech needs")
    return n, edge


def _resonate(x: np.ndarray, sections) -> np.ndarray:
    """Three 2-pole resonators ``(b0, a1, a2)`` in cascade, in one pass.

    Each one is ``scipy.signal.lfilter([b0], [1.0, a1, a2], ·)`` bit for bit:
    the loop repeats lfilter's transposed direct form operation for
    operation, with ``b`` zero-padded to ``[b0, 0.0, 0.0]``, so the zero taps
    still add ``x * 0.0``, which decides the sign of a zero result.
    """
    (b0, a1, a2), (c0, c1, c2), (d0, d1, d2) = sections
    u0 = u1 = v0 = v1 = w0 = w1 = 0.0
    out = []
    put = out.append
    for x0 in x.tolist():
        x1 = u0 + b0 * x0
        z = x0 * 0.0
        u0 = (u1 + z) - x1 * a1
        u1 = z - x1 * a2
        x2 = v0 + c0 * x1
        z = x1 * 0.0
        v0 = (v1 + z) - x2 * c1
        v1 = z - x2 * c2
        x3 = w0 + d0 * x2
        z = x2 * 0.0
        w0 = (w1 + z) - x3 * d1
        w1 = z - x3 * d2
        put(x3)
    return np.array(out, dtype=np.float64)


def synth_speech(seed: int, duration: float, sample_rate: int = 16000) -> TimeSignal:
    """Speech-shaped synthetic utterance: glottal-style pulse train with a
    piecewise pitch contour in 80-300 Hz, three formant resonators, syllabic
    amplitude modulation and occasional pauses.  Peak-normalized to 0.5.

    Deterministic in ``seed``; the first segment is always voiced so a scene
    starts with signal rather than silence.  The resonators (:func:`_resonate`)
    repeat ``scipy.signal.lfilter``'s operations exactly, so every utterance,
    and with it every scene, keeps the bits it had when lfilter ran them,
    without loading scipy.signal, the largest import the package would
    otherwise make.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    fs = sample_rate
    rng = np.random.default_rng([int(seed), 0x5B])
    n, edge = _check_synth_duration(duration, fs)

    seg = int(0.4 * fs)
    n_seg = -(-n // seg)
    f0s = rng.uniform(80.0, 300.0, n_seg)
    voiced = rng.random(n_seg) > 0.18
    voiced[0] = True
    f0_track = np.repeat(f0s, seg)[:n]
    gate = np.repeat(voiced.astype(float), seg)[:n]
    gate = np.convolve(gate, np.ones(edge) / edge, mode="same")

    phase = np.cumsum(f0_track / fs)
    pulses = (np.diff(np.floor(phase), prepend=0.0) > 0).astype(float)
    exc = pulses + 0.04 * rng.standard_normal(n)

    centers = rng.uniform([400.0, 1200.0, 2200.0], [800.0, 1800.0, 3000.0])
    widths = rng.uniform(80.0, 160.0, 3)
    sections = []
    for fc, bw in zip(centers, widths):
        r = math.exp(-math.pi * bw / fs)
        sections.append((1.0 - r, -2.0 * r * math.cos(2.0 * math.pi * fc / fs), r * r))
    exc = _resonate(exc, sections)

    t = np.arange(n) / fs
    am = 0.6 + 0.4 * np.sin(2.0 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0.0, 2.0 * np.pi))
    x = exc * gate * am
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise RuntimeError("synthesized silence; seed/duration degenerate")
    return TimeSignal(0.5 * x / peak, fs)


# ---------------------------------------------------------------------------
# Optimizer


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


class AdamOptimizer:
    """Adaptive moments with bias correction and global-norm clipping."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 1e-3, clip_norm: Optional[float] = 5.0):
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        _clip_global_norm(grads, self.clip_norm)
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        b1c = 1.0 - b1**self.t
        b2c = 1.0 - b2**self.t
        flat_params = dict(_flat_items(params))
        for key, g in _flat_items(grads):
            m = self.m[key] = b1 * self.m.get(key, 0.0) + (1.0 - b1) * g
            v = self.v[key] = b2 * self.v.get(key, 0.0) + (1.0 - b2) * g * g
            flat_params[key] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


# ---------------------------------------------------------------------------
# Configuration and scene sampling


def _check_range(name, rng_pair, lo=None, hi=None):
    try:
        a, b = (float(v) for v in rng_pair)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a (low, high) pair, got {rng_pair!r}") from None
    if not -math.inf < a <= b < math.inf:
        raise ValueError(f"{name} must be (low, high) with low <= high, finite, got {rng_pair}")
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
    seed: int = 0                  # `howlkit train` draws its scene pools with it
    validation_scenes: int = 4
    validation_gain: float = 2.0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "scenes_per_epoch", "t_bptt"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("lr", "validation_gain"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be finite and positive, or None")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.validation_scenes < 0:
            raise ValueError("validation_scenes must be nonnegative")


_SPLIT_TAGS = {"train": 1, "test": 2}


def draw_room(rng):
    """Draw shoebox dimensions and two points in it at least 1 m apart.

    Returns (dims, first, second), drawn in that order from ``rng``; the
    second point is redrawn until it is far enough from the first.
    """
    dims = rng.uniform((4.0, 3.0, 2.5), (8.0, 6.0, 3.5))
    first = dims * rng.uniform(0.12, 0.88, 3)
    second = dims * rng.uniform(0.12, 0.88, 3)
    while np.linalg.norm(second - first) < 1.0:
        second = dims * rng.uniform(0.12, 0.88, 3)
    return dims, first, second


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
    TimeSignals to crop from.  The sampler alone validates its duration and
    ranges; they are the run config's ``sampler`` section.
    """

    def __init__(self, seed: int = 0, split: str = "train", duration: float = 4.0,
                 sample_rate: int = 16000, utterances=None,
                 gain_range=(1.0, 3.0), delay_range=(0.15, 0.25),
                 rt60_range=(0.15, 0.6), coupling_range=(2.0, 4.0)):
        if split not in _SPLIT_TAGS:
            raise ValueError(f"split must be one of {sorted(_SPLIT_TAGS)}, got {split!r}")
        if not 0.0 < duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {duration}")
        if utterances is None:
            _check_synth_duration(duration, sample_rate)
        else:
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
        dims, mic, spk = draw_room(rng)
        talker = dims * rng.uniform(0.12, 0.88, 3)
        while np.linalg.norm(talker - mic) < 0.5:
            talker = dims * rng.uniform(0.12, 0.88, 3)

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
    is the detector's firing index when ``howl_abort`` is set; ``frames``
    then ends with the frame it fired in, and ``clamp_events`` is read at
    the end of that piece (P turns negative, if ever, only by rounding).
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


def build_ahs(nets, scene, spec: Optional[SuppressorSpec] = None) -> KalmanAhs:
    """Wrap shared nets in a fresh suppressor sized for one scene, or with
    one row per scene of a list."""
    return KalmanAhs.for_scene(
        scene, spec=spec,
        mask_net=nets.get("mask"), vv_net=nets.get("vv"), dd_net=nets.get("dd"),
    )


def _net_params(nets):
    return {name: net.params for name, net in nets.items()}


def _assert_finite_weights(nets):
    for name, net in nets.items():
        for key, arr in net.params.items():
            if not np.all(np.isfinite(arr)):
                raise ArithmeticError(f"non-finite weight in net {name!r} parameter {key!r}")


def _finite_rows(losses, grads):
    """Per row of a window: is its loss and every gradient finite?"""
    ok = np.isfinite(losses)
    for _, g in _flat_items(grads):
        ok &= np.isfinite(g).reshape(len(g), -1).all(axis=1)
    return ok


def _train_batch(nets, scenes, cfg: TrainConfig, optimizer, epoch: int, scene_ids,
                 spec: Optional[SuppressorSpec] = None, det: Optional[HowlDetectorConfig] = None):
    """Run a batch of equally long scenes as one stack, with
    window-synchronized updates.

    Every scene is one row of a single closed loop and suppressor.  The
    rows advance together, one suppressor call per piece (the rest of the
    window, cut where the loop's filled span ends), and close their windows
    together.  Each window's per-row gradients are averaged over the rows
    in scene order and applied as one optimizer step.  A row that howls (at its piece's
    end), or whose window loss or gradients are non-finite, is cut out of
    the stack without contributing that window.
    """
    ahs = build_ahs(nets, scenes, spec=spec)
    hop, delay = ahs.cfg.hop, min(scene.delay_samples for scene in scenes)
    if cfg.t_bptt * hop > delay:
        raise ValueError(
            f"t_bptt window ({cfg.t_bptt} frames x {hop} samples) exceeds the loop delay "
            f"({delay} samples); in-window feedback would be ignored by the window gradients")
    engine = ClosedLoop(scenes, ahs, det=det, frame_size=hop)
    target_stft = StreamingStft(ahs.cfg, len(scenes))
    live = list(range(len(scenes)))  # scene index of each remaining row
    losses = [[] for _ in scenes]
    frames, clamps = [0] * len(scenes), [0] * len(scenes)
    howl_sample, nan_events = [None] * len(scenes), [0] * len(scenes)
    params = _net_params(nets)

    def drop(gone):
        for row in gone:
            at = howl_sample[live[row]] = engine.howl_event[row]
            frames[live[row]] = engine.frames_done if at is None else at // hop + 1
            clamps[live[row]] = int(ahs.filt.clamps[row])
        kept = [row for row in range(len(live)) if row not in gone]
        live[:] = [live[row] for row in kept]
        if live:
            engine.keep(kept)  # also cuts the suppressor and its open window
            target_stft.keep(kept)
            window[:] = [mags[kept] for mags in window]

    window = []  # target magnitudes of the open window, one (rows, k, bins) per piece
    if engine.total_frames:
        ahs.begin_window()
    while live and engine.frames_done < engine.total_frames:
        t0 = engine.frames_done * hop
        engine.step(cfg.t_bptt - ahs.window_frames)
        piece = np.array([s[t0:engine.frames_done * hop] for s in engine.s])
        window.append(np.abs(target_stft.push(piece.reshape(len(live), -1, hop))))
        howled = [row for row, at in enumerate(engine.howl_event) if at is not None]
        if howled:
            # a diverging suppressor must not contribute a weight update: its
            # half-built window goes with its row
            drop(howled)
        if not live:
            break
        ended = engine.frames_done >= engine.total_frames
        if ahs.window_frames < cfg.t_bptt and not ended:
            continue
        window_losses, grads = ahs.end_window(np.moveaxis(np.concatenate(window, axis=1), 1, 0))
        window = []
        ok = _finite_rows(window_losses, grads)
        good, bad = np.flatnonzero(ok).tolist(), np.flatnonzero(~ok).tolist()
        for row in good:
            losses[live[row]].append(float(window_losses[row]))
        if good:
            # the rows' gradients, summed in scene order and averaged; with
            # every row good the stack itself is summed, which has the
            # layout, and so the bits, of its copy g[good]
            scale = 1.0 / len(good)
            optimizer.step(params, {name: {key: (g[good] if bad else g).sum(axis=0) * scale
                                           for key, g in tree.items()}
                                    for name, tree in grads.items()})
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


def _validate(nets, scenes, spec: Optional[SuppressorSpec] = None,
              det: Optional[HowlDetectorConfig] = None) -> float:
    """Mean SDR of the nets over held-out scenes, run forward as one stack."""
    ahs = build_ahs(nets, scenes, spec=spec)
    results = run_scene(scenes, ahs, det=det, frame_size=ahs.cfg.hop)
    return float(np.mean([sdr(res.s, res.s_hat_aligned()) for res in results]))


def save_checkpoint(nets, path: str, spec: Optional[SuppressorSpec] = None, meta=None):
    """Write nets (one file each), their suppressor spec (default when
    omitted) and metadata; no optimizer state is kept.  Nets sized for
    another bin count than the spec's raise ValueError before anything is
    written."""
    spec = spec or SuppressorSpec()
    bins = spec.stft.num_bins
    for name, net in nets.items():
        sizes = ((2 if name == "mask" else 1) * bins, bins)
        if (net.input_size, net.output_size) != sizes:
            raise ValueError(f"net {name!r} maps {net.input_size} -> {net.output_size} "
                             f"features; a {bins}-bin suppressor needs {sizes[0]} -> {bins}")
    os.makedirs(path, exist_ok=True)
    for name, net in nets.items():
        save_params(net, os.path.join(path, f"{name}.net"))
    record = {"nets": sorted(nets), "suppressor": asdict(spec)}
    if meta:
        record.update(meta)
    with open(os.path.join(path, "checkpoint.json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str, spec: Optional[SuppressorSpec] = None):
    """Load nets saved by save_checkpoint; returns {name: LstmNet}.  A
    checkpoint whose recorded spec is not ``spec`` (default when omitted),
    or that records none, raises ConfigError naming each key that differs."""
    manifest = os.path.join(path, "checkpoint.json")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no checkpoint manifest at {manifest}")
    with open(manifest) as f:
        record = json.load(f)
    if "suppressor" not in record:
        raise ConfigError(f"{manifest} records no suppressor spec")
    recorded = record["suppressor"]
    diffs = [f"{sec}.{key}: checkpoint {recorded.get(sec, {}).get(key)}, config {val}"
             for sec, fields in asdict(spec or SuppressorSpec()).items()
             for key, val in fields.items() if recorded.get(sec, {}).get(key) != val]
    if diffs:
        raise ConfigError(f"{manifest} was recorded under another suppressor: {'; '.join(diffs)}")
    return {name: load_params(os.path.join(path, f"{name}.net"))
            for name in record["nets"]}


def train(nets, sampler: SceneSampler, cfg: TrainConfig, val_sampler: Optional[SceneSampler] = None,
          log_path: Optional[str] = None, checkpoint_dir: Optional[str] = None,
          spec: Optional[SuppressorSpec] = None, det: Optional[HowlDetectorConfig] = None):
    """Full training run: epochs x scenes_per_epoch scenes in batches.

    Fresh scenes are drawn every epoch (index = epoch * scenes_per_epoch + j,
    so no scene repeats).  After each epoch the nets are scored by mean SDR
    on fixed held-out scenes from ``val_sampler`` when given; the best
    checkpoint is kept under ``checkpoint_dir`` and reloaded into the nets
    at the end.  ``spec`` sets the suppressor's transform and filter, and
    every checkpoint records it; ``det`` sets the howling test (library
    defaults when omitted).  Returns ``(nets, events)``.
    """
    if not nets:
        raise ValueError("no nets to train")
    optimizer = AdamOptimizer(cfg.lr, cfg.clip_norm)
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
                                          spec=spec, det=det):
                    events.append(event)
                    if log_file:
                        log_file.write(event.to_json() + "\n")
            if val_sampler is not None and cfg.validation_scenes > 0:
                if val_scenes is None:
                    val_scenes = [val_sampler.scene(i, gain=cfg.validation_gain)
                                  for i in range(cfg.validation_scenes)]
                score = _validate(nets, val_scenes, spec=spec, det=det)
                if log_file:
                    log_file.write(json.dumps({"epoch": epoch, "val_sdr": score}) + "\n")
                if score > best_sdr:
                    best_sdr = score
                    if best_dir:
                        save_checkpoint(nets, best_dir, spec,
                                        meta={"epoch": epoch, "val_sdr": score})
        if checkpoint_dir:
            save_checkpoint(nets, os.path.join(checkpoint_dir, "final"), spec,
                            meta={"epoch": cfg.epochs - 1, "val_sdr": best_sdr if np.isfinite(best_sdr) else None})
        if best_dir and os.path.exists(os.path.join(best_dir, "checkpoint.json")):
            best = load_checkpoint(best_dir, spec)
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
