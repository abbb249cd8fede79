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

    ``gain`` is one number.  A gain sweep is a stack of copies,
    ``[replace(scene, gain=g) for g in gains]``, which share one target.
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
        if np.ndim(self.gain):
            raise ValueError("gain must be one number; sweep gains with a list of scene copies")
        if not (np.isfinite(self.gain) and self.gain >= 0):
            raise ValueError(f"gain must be finite and nonnegative, got {self.gain}")
        if not (np.isfinite(self.sat) and self.sat > 0):
            raise ValueError(f"sat must be finite and positive, got {self.sat}")
        if not np.isfinite(self.delay) or self.delay_samples < 1:
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
    """Pass-through suppressor: returns the microphone chunk (or, in a
    stack, one chunk per row) unchanged, whatever its length."""

    latency = 0

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        return np.array(frame, dtype=np.float64)


def _howl_scan(samples: np.ndarray, det: HowlDetectorConfig, carry):
    """Scan one chunk for a qualifying loud run.

    Returns (index of the first sample whose consecutive-loud run exceeds
    det.run_length, or None; run length still open at the chunk end).  A
    (B, n) chunk is scanned row by row with one carry per row; its first
    indices come as a (B,) array with -1 for rows without a hit, or None
    when no row has one.
    """
    n = samples.shape[-1]
    if n == 0:
        return None, carry
    loud = np.abs(samples) > det.amp_threshold
    if not loud.any():
        return None, 0
    idx = np.arange(n)
    # each quiet sample marks its own index, and the run still open from the
    # last chunk started carry samples before index 0
    marks = np.where(loud, -1 - np.asarray(carry)[..., None], idx)
    run = idx - np.maximum.accumulate(marks, axis=-1)
    hit = run > det.run_length
    if samples.ndim == 1:
        hits = np.flatnonzero(hit)
        return (int(hits[0]) if hits.size else None), int(run[-1])
    if not hit.any():
        return None, run[:, -1]
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1), run[:, -1]


def delayed(x, t, span, delays):
    """Samples [t, t + span) of each row of ``x`` delayed by its row's delay, +0.0 before 0."""
    heard = np.zeros((len(x), span))
    for row, dly in enumerate(delays):
        lo = t - dly
        heard[row, max(0, -lo):] = x[row, max(0, lo):max(0, lo + span)]
    return heard


class ClosedLoop:
    """Resumable closed-loop engine.

    run_scene drives one start to finish a span at a time (``step_span``);
    training drives it frame by frame (``step_frame``) so weight updates can
    interleave with the simulation, and the two steps mix freely.  ``ahs``
    is called with any whole number k >= 1 of frames, (..., k * frame_size)
    microphone samples, and must return that many output samples; its fixed
    pipeline delay is read from ``ahs.latency`` (0 when absent).
    ``frame_size`` may not exceed the scene delay — each frame is handed
    over before its own output can reach the microphone.  Trailing samples
    that do not fill a whole frame are dropped.

    ``scene`` may also be a stack: a list of scenes of equal length, one per
    row, each with its own target, gain, delay, clip and feedback path (a
    gain sweep is a stack of gain copies of one scene).  Then every stream
    is (B, n) but ``s``, which lists views of the scenes' own targets.
    ``s_frame`` holds the target samples of the frame last stepped.
    ``howl_event`` is a list with one entry per row, and ``ahs`` maps
    (B, k * frame_size) chunks to (B, k * frame_size) chunks.  Each row is
    bitwise the run its scene gives alone.

    No microphone sample within one loop delay of the frames stepped hears
    a frame not yet stepped, so ``d`` and ``y`` are filled a span at a time
    (the most whole frames within the shortest row delay) by one feedback
    path call, and may hold samples up to one span beyond ``frames_done``.
    ``step_span`` hands the suppressor the rest of the filled span in one
    call.  ``result()`` still truncates every stream to the frames run.
    """

    def __init__(self, scene, ahs, det: Optional[HowlDetectorConfig] = None,
                 frame_size: int = 64):
        det = det if det is not None else HowlDetectorConfig()
        if isinstance(scene, LoopScene):
            rows, scenes = None, [scene]
        else:
            scenes = list(scene)
            if not scenes:
                raise ValueError("a scene stack is a nonempty list of scenes")
            rows = len(scenes)
        targets = [sc.target() for sc in scenes]
        if len({len(t) for t in targets}) > 1:
            raise ValueError("the scenes of a stack must be equally long")
        if len({sc.sample_rate for sc in scenes}) > 1:
            raise ValueError("the scenes of a stack must share one sample rate")
        n = len(targets[0])
        dly = min(sc.delay_samples for sc in scenes)
        if frame_size < 1 or frame_size > dly:
            raise ValueError(f"frame_size must be in [1, {dly}] for this scene")
        n -= n % frame_size

        lead = () if rows is None else (rows,)
        self.scene = scene
        self.rows = rows
        self.ahs = ahs
        self.det = det
        self.frame_size = frame_size
        if rows is None:
            self.s = targets[0][:n]
            self._gain, self._sat = scene.gain, scene.sat
            self._conv = StreamingConvolver(scene.feedback_rir)
        else:
            # per-row views of the scenes' own read-only targets, not a copy
            self.s = [t[:n] for t in targets]
            self._gain = np.array([[sc.gain] for sc in scenes])
            self._sat = np.array([[sc.sat] for sc in scenes])
            self._conv = StreamingConvolver([sc.feedback_rir for sc in scenes])
        self._row_scenes = scenes
        self.y = np.zeros(lead + (n,))
        self.s_hat = np.zeros(lead + (n,))
        self.x = np.zeros(lead + (n,))
        self.d = np.zeros(lead + (n,))
        self.howl_event = None if rows is None else [None] * rows
        self._frame_shape = lead + (frame_size,)
        self._carry = 0
        self._t = 0
        self._end = 0  # d and y are filled up to here

    @property
    def total_frames(self) -> int:
        return self.y.shape[-1] // self.frame_size

    @property
    def frames_done(self) -> int:
        return self._t // self.frame_size

    @property
    def s_frame(self):
        """Target samples of the frame last stepped, (B, frame_size) for a
        stack; None before the first step."""
        if self._t == 0:
            return None
        sl = slice(self._t - self.frame_size, self._t)
        if self.rows is None:
            return self.s[sl]
        frame = np.empty(self._frame_shape)
        for row, s in enumerate(self.s):
            frame[row] = s[sl]
        return frame

    def keep(self, rows):
        """Continue a stack with only these rows, in this order.

        The suppressor keeps the same rows (through its own ``keep``, when
        it has one), and ``result()`` then covers these rows alone.
        """
        rows = np.asarray(rows, dtype=np.intp)
        self.rows = len(rows)
        self._row_scenes = [self._row_scenes[i] for i in rows]
        self.s = [self.s[i] for i in rows]
        self.y, self.s_hat, self.x, self.d = (a[rows] for a in (self.y, self.s_hat, self.x, self.d))
        self.howl_event = [self.howl_event[i] for i in rows]
        self._gain = self._gain[rows]
        self._sat = self._sat[rows]
        if np.ndim(self._carry):
            self._carry = self._carry[rows]
        self._frame_shape = (self.rows, self.frame_size)
        self._conv.keep(rows)
        if hasattr(self.ahs, "keep"):
            self.ahs.keep(rows)

    def step_frame(self) -> bool:
        """Advance one frame; returns True if howling fired within it (in
        any row of a stack)."""
        return self._step(False)

    def step_span(self) -> bool:
        """Advance every frame up to the end of the filled span (filling
        the next span first when none is left) with one suppressor call;
        returns True if howling fired within them (in any row of a stack)."""
        return self._step(True)

    def _step(self, span):
        if self.frames_done >= self.total_frames:
            raise RuntimeError("scene already fully processed")
        t = self._t
        if t == self._end:
            self._fill(t)
        n = self._end - t if span else self.frame_size
        sl = slice(t, t + n)
        out = np.asarray(self.ahs(self.y[..., sl]), dtype=np.float64)
        if out.shape != self._frame_shape[:-1] + (n,):
            raise ValueError("suppressor returned a chunk of the wrong length")
        self.s_hat[..., sl] = out
        # np.clip's values for a clip above 0, without its wrapper's overhead
        self.x[..., sl] = np.minimum(np.maximum(self._gain * out, -self._sat), self._sat)
        hit, self._carry = _howl_scan(out, self.det, self._carry)
        if hit is not None:
            if self.rows is None:
                if self.howl_event is None:
                    self.howl_event = t + hit
            else:
                for row in np.flatnonzero(hit >= 0):
                    if self.howl_event[row] is None:
                        self.howl_event[row] = t + int(hit[row])
        self._t = t + n
        return hit is not None

    def _fill(self, t):
        """Microphone samples of the span from ``t``: the target plus the
        loudspeaker stream, delayed by each row's loop delay (+0.0 before
        its start), through the feedback path."""
        dly = min(sc.delay_samples for sc in self._row_scenes)
        span = min(dly - dly % self.frame_size, self.y.shape[-1] - t)
        sl = slice(t, t + span)
        heard = delayed(np.atleast_2d(self.x), t, span, [s.delay_samples for s in self._row_scenes])
        d = self.d[..., sl]
        d[...] = self._conv.process(heard[0] if self.rows is None else heard)
        if self.rows is None:
            self.y[sl] = self.s[sl] + d
        else:
            # row by row from the scenes' own targets: gathering them costs more
            for row, s in enumerate(self.s):
                np.add(s[sl], d[row], out=self.y[row, sl])
        self._end = t + span

    def result(self):
        """Streams processed so far, packaged (partial runs are truncated).

        A stack gives a tuple with one SceneResult per row, in order.
        """
        if self.rows is None:
            return self._result(self.s, self.y, self.s_hat, self.x, self.d, self.howl_event,
                                self.scene)
        return tuple(self._result(self.s[i], self.y[i], self.s_hat[i], self.x[i], self.d[i],
                                  self.howl_event[i], sc)
                     for i, sc in enumerate(self._row_scenes))

    def _result(self, s, y, s_hat, x, d, howl_event, scene) -> SceneResult:
        n = self._t
        return SceneResult(
            s=s[:n], y=y[:n], s_hat=s_hat[:n], x=x[:n], d=d[:n],
            howl_event=howl_event,
            ahs_latency=int(getattr(self.ahs, "latency", 0)),
            sample_rate=scene.sample_rate,
            gain=scene.gain,
            delay_samples=scene.delay_samples,
            seed=scene.seed,
        )


def run_scene(scene: LoopScene, ahs, det: Optional[HowlDetectorConfig] = None,
              frame_size: int = 64):
    """Run a suppressor through a whole scene inside the closed loop.

    The suppressor is called once per filled span (the most whole frames
    within the shortest loop delay), with all of its frames; see ClosedLoop
    for the call contract.  Divergence never raises: the loudspeaker clip
    bounds every stream, and a sustained loud suppressor output is reported
    through the result's ``howl_event`` (the run always completes full
    length).  Returns a SceneResult, or for a stack of scenes a tuple of
    them, one per row.
    """
    engine = ClosedLoop(scene, ahs, det=det, frame_size=frame_size)
    while engine.frames_done < engine.total_frames:
        engine.step_span()
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
