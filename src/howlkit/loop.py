"""Closed-loop amplification simulator: gain, delay, saturation, howling.

A public-address setup picks up its own playback.  The microphone hears

    y(t) = s(t) + d(t),    d(t) = h * clip(G * s_hat(t - Dt))

where s is the near-end source, s_hat the suppressor output that gets
amplified by G and played back after a system delay Dt through the
loudspeaker-to-microphone path h.  Once the loop gain passes unity at any
frequency the recursion howls; a hard clip at the loudspeaker keeps every
signal finite so runs can always be scored.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .rooms import Rir, StreamingConvolver, convolve_batch
from .signals import TimeSignal
from .wavio import write_wav


@dataclass(frozen=True)
class HowlDetectorConfig:
    """Howling test: |sample| > amp_threshold for more than run_length in a row."""

    amp_threshold: float = 1.0
    run_length: int = 100

    def __post_init__(self):
        if self.amp_threshold <= 0:
            raise ValueError("amp_threshold must be positive")
        if self.run_length < 1:
            raise ValueError("run_length must be at least 1")


@dataclass(frozen=True)
class LoopScene:
    """One amplification scenario: source, acoustic paths, gain and delay.

    ``delay`` is the full mic-to-loudspeaker system delay in seconds; the
    loudspeaker hard-clips at ``sat``.  When ``near_rir`` is given the dry
    source is reverberated through it to form the target signal s(t).
    ``seed`` is provenance metadata only; the loop itself draws no randomness.
    """

    near_end: TimeSignal
    feedback_rir: Rir
    gain: float
    delay: float
    near_rir: Optional[Rir] = None
    sat: float = 1.0
    seed: int = 0
    # [near_end, near_rir, target or None]: one slot that dataclasses.replace
    # passes on, so copies sharing both signals reverberate the target once
    _target_slot: Optional[list] = field(default=None, compare=False, repr=False,
                                           kw_only=True)

    def __post_init__(self):
        if self.gain < 0:
            raise ValueError("gain must be nonnegative")
        if self.sat <= 0:
            raise ValueError("sat must be positive")
        if self.delay_samples < 1:
            raise ValueError("delay must round to at least one sample")
        if self.feedback_rir.sample_rate != self.near_end.sample_rate:
            raise ValueError("feedback_rir sample rate differs from near_end")
        if self.near_rir is not None and self.near_rir.sample_rate != self.near_end.sample_rate:
            raise ValueError("near_rir sample rate differs from near_end")
        slot = self._target_slot
        if slot is None or slot[0] is not self.near_end or slot[1] is not self.near_rir:
            object.__setattr__(self, "_target_slot", [self.near_end, self.near_rir, None])

    @property
    def sample_rate(self) -> int:
        return self.near_end.sample_rate

    @property
    def delay_samples(self) -> int:
        return int(round(self.delay * self.near_end.sample_rate))

    def target(self) -> np.ndarray:
        """Signal the suppressor should recover: the source, reverberated
        through near_rir when one is given.

        Computed on the first call and shared, read-only, with every
        ``dataclasses.replace`` copy that keeps the same near_end and
        near_rir objects; their sample arrays must not change afterwards.
        """
        slot = self._target_slot
        if slot[2] is None:
            if self.near_rir is None:
                target = self.near_end.samples.view()
            else:
                target = convolve_batch(self.near_end.samples, self.near_rir.taps)
            target.setflags(write=False)
            slot[2] = target
        return slot[2]


@dataclass(frozen=True)
class SceneResult:
    """Sample streams from one closed-loop run, on a shared time base.

    ``s_hat`` is the raw suppressor output stream and lags the target by the
    suppressor's pipeline delay; use :meth:`s_hat_aligned` when comparing
    against ``s``.  ``howl_event`` is the index of the sample at which the
    suppressor output first stayed above the detector threshold for more than
    the configured run length, or None.  ``s`` is a read-only view of the
    scene's shared target.
    """

    s: np.ndarray
    y: np.ndarray
    s_hat: np.ndarray
    x: np.ndarray
    d: np.ndarray
    howl_event: Optional[int]
    ahs_latency: int
    sample_rate: int
    gain: float
    delay_samples: int
    seed: int

    def s_hat_aligned(self) -> np.ndarray:
        """Suppressor output advanced by its declared latency, zero padded."""
        lat = self.ahs_latency
        if lat == 0:
            return self.s_hat.copy()
        return np.concatenate([self.s_hat[lat:], np.zeros(lat)])


class IdentityAhs:
    """Pass-through suppressor: returns the microphone frame unchanged."""

    latency = 0

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        return np.array(frame, dtype=np.float64)


def _howl_scan(samples: np.ndarray, det: HowlDetectorConfig, carry: int):
    """Scan one chunk for a qualifying loud run.

    Returns (index of the first sample whose consecutive-loud run exceeds
    det.run_length, or None; run length still open at the chunk end).
    """
    n = len(samples)
    if n == 0:
        return None, carry
    loud = np.abs(samples) > det.amp_threshold
    if not loud.any():
        return None, 0
    idx = np.arange(n)
    last_quiet = np.maximum.accumulate(np.where(~loud, idx, -1))
    run = np.where(last_quiet < 0, idx + 1 + carry, idx - last_quiet)
    run = np.where(loud, run, 0)
    hits = np.nonzero(run > det.run_length)[0]
    first = int(hits[0]) if hits.size else None
    return first, int(run[-1])


class DelayLine:
    """Fixed-occupancy FIFO: peek the oldest samples, then push replacements."""

    def __init__(self, length: int):
        self._buf = np.zeros(length)
        self._pos = 0

    def peek(self, count: int) -> np.ndarray:
        buf, pos = self._buf, self._pos
        if count > len(buf):
            raise ValueError("cannot peek past the line length")
        wrap = pos + count - len(buf)
        if wrap <= 0:
            return buf[pos:pos + count].copy()
        return np.concatenate((buf[pos:], buf[:wrap]))

    def push(self, chunk: np.ndarray):
        buf, pos = self._buf, self._pos
        head = min(len(chunk), len(buf) - pos)
        buf[pos:pos + head] = chunk[:head]
        if head < len(chunk):
            buf[:len(chunk) - head] = chunk[head:]
        self._pos = (pos + len(chunk)) % len(buf)


class ClosedLoop:
    """Resumable closed-loop engine.

    run_scene drives one start to finish; training drives it frame by frame
    so weight updates can interleave with the simulation.  ``ahs`` is called
    once per ``frame_size`` microphone samples and must return that many
    output samples; its fixed pipeline delay is read from ``ahs.latency``
    (0 when absent).  ``frame_size`` may not exceed the scene delay — each
    frame is handed over before its own output can reach the microphone.
    Trailing samples that do not fill a whole frame are dropped.
    """

    def __init__(self, scene: LoopScene, ahs, det: Optional[HowlDetectorConfig] = None,
                 duration: Optional[float] = None, frame_size: int = 64):
        det = det if det is not None else HowlDetectorConfig()
        fs = scene.sample_rate
        target = scene.target()
        n = len(target) if duration is None else int(round(duration * fs))
        if n > len(target):
            raise ValueError("duration exceeds the near-end signal")
        dly = scene.delay_samples
        if frame_size < 1 or frame_size > dly:
            raise ValueError(f"frame_size must be in [1, {dly}] for this scene")
        n -= n % frame_size

        self.scene = scene
        self.ahs = ahs
        self.det = det
        self.frame_size = frame_size
        self.s = target[:n]
        self.y = np.zeros(n)
        self.s_hat = np.zeros(n)
        self.x = np.zeros(n)
        self.d = np.zeros(n)
        self.howl_event: Optional[int] = None
        self._line = DelayLine(dly)
        self._conv = StreamingConvolver(scene.feedback_rir)
        self._carry = 0
        self._t = 0

    @property
    def total_frames(self) -> int:
        return len(self.s) // self.frame_size

    @property
    def frames_done(self) -> int:
        return self._t // self.frame_size

    def step_frame(self) -> bool:
        """Advance one frame; returns True if howling fired within it."""
        if self.frames_done >= self.total_frames:
            raise RuntimeError("scene already fully processed")
        t = self._t
        sl = slice(t, t + self.frame_size)
        self.d[sl] = self._conv.process(self._line.peek(self.frame_size))
        self.y[sl] = self.s[sl] + self.d[sl]
        out = np.asarray(self.ahs(self.y[sl]), dtype=np.float64)
        if out.shape != (self.frame_size,):
            raise ValueError("suppressor returned a frame of the wrong length")
        self.s_hat[sl] = out
        self.x[sl] = np.clip(self.scene.gain * out, -self.scene.sat, self.scene.sat)
        self._line.push(self.x[sl])
        hit, self._carry = _howl_scan(out, self.det, self._carry)
        if hit is not None and self.howl_event is None:
            self.howl_event = t + hit
        self._t = t + self.frame_size
        return hit is not None

    def result(self) -> SceneResult:
        """Streams processed so far, packaged (partial runs are truncated)."""
        n = self._t
        return SceneResult(
            s=self.s[:n], y=self.y[:n], s_hat=self.s_hat[:n], x=self.x[:n], d=self.d[:n],
            howl_event=self.howl_event,
            ahs_latency=int(getattr(self.ahs, "latency", 0)),
            sample_rate=self.scene.sample_rate,
            gain=self.scene.gain,
            delay_samples=self.scene.delay_samples,
            seed=self.scene.seed,
        )


def run_scene(scene: LoopScene, ahs, det: Optional[HowlDetectorConfig] = None,
              duration: Optional[float] = None, frame_size: int = 64) -> SceneResult:
    """Run a suppressor through a whole scene inside the closed loop.

    Divergence never raises: the loudspeaker clip bounds every stream, and a
    sustained loud suppressor output is reported through the result's
    ``howl_event`` (the run always completes full length).
    """
    engine = ClosedLoop(scene, ahs, det=det, duration=duration, frame_size=frame_size)
    for _ in range(engine.total_frames):
        engine.step_frame()
    return engine.result()


def save_scene_result(result: SceneResult, out_dir: str, stem: str) -> str:
    """Write the five streams as float32 WAVs plus a JSON manifest.

    Returns the manifest path.  File names are ``{stem}_{name}.wav`` for
    name in s, y, s_hat, x, d.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name in ("s", "y", "s_hat", "x", "d"):
        fname = f"{stem}_{name}.wav"
        write_wav(os.path.join(out_dir, fname), getattr(result, name), result.sample_rate)
        files[name] = fname
    manifest = {
        "stem": stem,
        "files": files,
        "sample_rate": result.sample_rate,
        "gain": result.gain,
        "delay_samples": result.delay_samples,
        "seed": result.seed,
        "howl_event": result.howl_event,
        "ahs_latency": result.ahs_latency,
    }
    path = os.path.join(out_dir, f"{stem}_manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return path
