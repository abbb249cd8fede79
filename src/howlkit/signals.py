"""Framing, windowing, forward/inverse STFT and log-power features.

All spectra in this package are one-sided (65 bins at the 128/64 default),
stored as complex rows of shape (num_frames, num_bins).  The forward
transform is an unnormalized rfft of the windowed frame; the inverse uses
irfft (which carries the 1/N factor) followed by synthesis windowing and
overlap-add, divided by the overlap-added window product.  With the default
square-root Hann pair at 50% overlap that product is 1.0 on the interior,
so interior samples reconstruct exactly.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

COLA_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid framing or window configuration."""


@dataclass(frozen=True)
class TimeSignal:
    """Mono sample sequence at a fixed rate, nominal range [-1, +1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")

    def __len__(self):
        return len(self.samples)


def make_window(name: str, frame_len: int) -> np.ndarray:
    """Analysis window by id. Periodic (DFT-even) variants throughout."""
    n = np.arange(frame_len)
    if name == "sqrt_hann":
        return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len))
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len)
    if name == "rect":
        return np.ones(frame_len)
    raise ConfigError(f"unknown window id: {name!r}")


@dataclass(frozen=True)
class StftConfig:
    """Frame 128 / hop 64 at 16 kHz gives 8 ms frames at 50% shift, 65 bins."""

    frame_len: int = 128
    hop: int = 64
    window: str = "sqrt_hann"
    sample_rate: int = 16000

    def __post_init__(self):
        if self.frame_len <= 0 or self.frame_len % 2 != 0:
            raise ConfigError(f"frame_len must be even and positive, got {self.frame_len}")
        if not 0 < self.hop <= self.frame_len:
            raise ConfigError(f"hop must be in (0, frame_len], got {self.hop}")
        # Analysis and synthesis use the same window; validate the pair now
        # so every downstream module can rely on constant overlap-add.
        cola = cola_profile(self.analysis_window * self.synthesis_window, self.frame_len, self.hop)
        spread = float(np.ptp(cola))
        if spread > COLA_TOL * max(cola.max(), 1.0):
            raise ConfigError(
                f"window {self.window!r} with hop {self.hop} violates constant "
                f"overlap-add (spread {spread:.3e})"
            )

    @property
    def fft_size(self) -> int:
        return self.frame_len

    @property
    def num_bins(self) -> int:
        return self.frame_len // 2 + 1

    @property
    def analysis_window(self) -> np.ndarray:
        return make_window(self.window, self.frame_len)

    @property
    def synthesis_window(self) -> np.ndarray:
        return make_window(self.window, self.frame_len)

    @property
    def cola_gain(self) -> float:
        """Constant value of the overlap-added window product on the interior."""
        prod = self.analysis_window * self.synthesis_window
        return float(cola_profile(prod, self.frame_len, self.hop)[0])


def cola_profile(window_product: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Overlap-add of the window product over one hop period (interior view)."""
    acc = np.zeros(hop)
    for start in range(0, frame_len, hop):
        seg = window_product[start : start + hop]
        acc[: len(seg)] += seg
    return acc


def num_frames(n_samples: int, cfg: StftConfig) -> int:
    if n_samples < cfg.frame_len:
        return 0
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def stft(signal: TimeSignal, cfg: StftConfig) -> np.ndarray:
    """Forward STFT. Frame k covers samples [k*hop, k*hop + frame_len).

    Returns a complex array of shape (num_frames, num_bins); row k is the
    one-sided unnormalized transform of the windowed frame k.
    """
    x = signal.samples
    if len(x) < cfg.frame_len:
        raise ValueError(f"signal too short: {len(x)} samples < frame_len {cfg.frame_len}")
    return _analyse(x, num_frames(len(x), cfg), cfg.hop, cfg.analysis_window)


def _analyse(samples: np.ndarray, count: int, hop: int, window: np.ndarray) -> np.ndarray:
    """Transforms of ``count`` windowed frames of samples, ``hop`` apart: (..., count, bins)."""
    if count == 1:
        return np.fft.rfft(samples[..., None, :len(window)] * window)
    # a hop that passes the COLA check divides the frame, so a frame is whole hops
    hops = samples[..., :(count - 1) * hop + len(window)].reshape(samples.shape[:-1] + (-1, hop))
    frames = np.concatenate([hops[..., b:b + count, :] for b in range(len(window) // hop)], axis=-1)
    return np.fft.rfft(np.multiply(frames, window, out=frames))


def istft(frames: np.ndarray, cfg: StftConfig) -> TimeSignal:
    """Inverse STFT by windowed overlap-add with COLA normalization.

    istft(stft(x)) reproduces x exactly (to rounding) on the interior
    [hop, num_frames*hop); edge samples lack full window overlap and are
    divided by the partial window sum where it is nonzero.
    """
    frames = np.atleast_2d(np.asarray(frames))
    if frames.size == 0:
        return TimeSignal(np.zeros(0), cfg.sample_rate)
    if frames.shape[1] != cfg.num_bins:
        raise ValueError(f"frames have {frames.shape[1]} bins, config expects {cfg.num_bins}")
    count = frames.shape[0]
    out_len = (count - 1) * cfg.hop + cfg.frame_len
    out = np.zeros(out_len)
    wsum = np.zeros(out_len)
    syn = cfg.synthesis_window
    prod = cfg.analysis_window * syn
    segs = np.fft.irfft(frames, n=cfg.fft_size, axis=1) * syn[None, :]
    for k in range(count):
        start = k * cfg.hop
        out[start : start + cfg.frame_len] += segs[k]
        wsum[start : start + cfg.frame_len] += prod
    nz = wsum > 1e-10
    out[nz] /= wsum[nz]
    return TimeSignal(out, cfg.sample_rate)


def log_power(frame: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Elementwise log(max(|bin|^2, floor)). Natural log."""
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    return np.log(np.maximum(np.abs(np.asarray(frame)) ** 2, floor))


class StreamingStft:
    """Hop-synchronous analysis: push hops of samples, get one frame per hop.

    Frame m produced after pushing hop chunk m covers samples
    [(m-1)*hop, (m+1)*hop) with zero history before the stream start, i.e.
    streaming frame m equals batch stft frame m-1 for m >= 1.  k successive
    hops pushed as (k, hop) give the (k, num_bins) frames of k pushes.  With
    ``rows`` it analyses that many streams at once: (rows, hop) or
    (rows, k, hop) chunks in, (rows, num_bins) or (rows, k, num_bins) out.
    """

    def __init__(self, cfg: StftConfig, rows: Optional[int] = None):
        self.cfg = cfg
        self._buf = np.zeros(cfg.frame_len if rows is None else (rows, cfg.frame_len))
        self._win = cfg.analysis_window

    def keep(self, rows):
        """Continue with only these rows, in this order."""
        self._buf = self._buf[rows]

    def push(self, chunk: np.ndarray) -> np.ndarray:
        hop, lead = self.cfg.hop, self._buf.shape[:-1]
        many = chunk.ndim == len(lead) + 2
        if chunk.shape[-1] != hop or chunk.shape[:len(lead)] != lead or chunk.ndim > len(lead) + 2:
            raise ValueError(f"chunk must be whole hops of {hop} per row, got {chunk.shape}")
        if many:  # the last frame_len - hop samples, then the new hops
            stream = np.concatenate((self._buf[..., hop:], chunk.reshape(lead + (-1,))), axis=-1)
            self._buf = stream[..., -self.cfg.frame_len:].copy()
            return _analyse(stream, chunk.shape[-2], hop, self._win)
        self._buf[..., :-hop] = self._buf[..., hop:]  # in place: no fresh array per hop
        self._buf[..., -hop:] = chunk
        return _analyse(self._buf, 1, hop, self._win)[..., 0, :]


class StreamingIstft:
    """Hop-synchronous synthesis: push frames, get one finished hop per frame.

    The emitted hop for frame m is the fully overlap-added region
    [(m-1)*hop, m*hop), so the round trip through StreamingStft and
    StreamingIstft delays the stream by exactly frame_len - hop samples.
    k successive frames pushed as (k, num_bins) give the k*hop samples of k
    one-frame pushes, bit for bit.  With ``rows`` it synthesises that many
    streams from (rows, num_bins) or (rows, k, num_bins) frames.
    """

    def __init__(self, cfg: StftConfig, rows: Optional[int] = None):
        if cfg.frame_len != 2 * cfg.hop:
            raise ConfigError("streaming synthesis requires 50% overlap")
        self.cfg = cfg
        self._ola = np.zeros(cfg.frame_len if rows is None else (rows, cfg.frame_len))
        self._win = cfg.synthesis_window
        self._gain = cfg.cola_gain

    def keep(self, rows):
        """Continue with only these rows, in this order."""
        self._ola = self._ola[rows]

    def push(self, frame: np.ndarray) -> np.ndarray:
        hop = self.cfg.hop
        seg = np.fft.irfft(frame, n=self.cfg.fft_size) * self._win
        if frame.ndim == self._ola.ndim + 1:
            # each frame's tail, added to +0.0 as the one-frame buffer does,
            # overlaps the next frame's head; the first head meets the buffer's
            tails = seg[..., hop:] + 0.0
            heads = seg[..., :hop]
            heads[..., 0, :] += self._ola[..., :hop]
            heads[..., 1:, :] += tails[..., :-1, :]
            self._ola[..., :hop] = tails[..., -1, :]
            self._ola[..., hop:] = 0.0
            heads /= self._gain
            return heads.reshape(self._ola.shape[:-1] + (-1,))
        self._ola += seg
        out = self._ola[..., :hop] / self._gain
        self._ola[..., :-hop] = self._ola[..., hop:]
        self._ola[..., -hop:] = 0.0
        return out
