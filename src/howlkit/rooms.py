"""Image-method room impulse responses and streaming convolution.

The image method follows Allen and Berkeley for a shoebox room with a
frequency-independent wall reflection coefficient derived from the target
RT60 via Sabine's formula.  Image arrival times are rounded to the nearest
sample (no fractional-delay interpolation), which keeps generation
deterministic and fast at the cost of some high-frequency accuracy.
Generated responses are normalized to unit peak amplitude so that the
loudspeaker-to-microphone path combined with amplification gains in [1, 3]
can actually drive the simulated loop unstable.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import lfilter

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room with one source and one receiver."""

    dimensions: tuple  # (Lx, Ly, Lz) meters
    source_pos: tuple
    mic_pos: tuple
    rt60: float
    sample_rate: int = 16000
    max_rir_len: int | None = None  # defaults to 0.5 * sample_rate
    seed: int = 0
    jitter: float = 0.0  # std of per-image arrival jitter, in samples

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=float)
        src = np.asarray(self.source_pos, dtype=float)
        mic = np.asarray(self.mic_pos, dtype=float)
        if dims.shape != (3,) or src.shape != (3,) or mic.shape != (3,):
            raise ValueError("dimensions and positions must be 3-vectors")
        if np.any(dims <= 0):
            raise ValueError(f"room dimensions must be positive, got {self.dimensions}")
        for name, p in (("source", src), ("mic", mic)):
            if np.any(p <= 0) or np.any(p >= dims):
                raise ValueError(f"{name} position {tuple(p)} not strictly inside room {self.dimensions}")
        if self.rt60 < 0:
            raise ValueError(f"rt60 must be >= 0, got {self.rt60}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def rir_len(self) -> int:
        return self.max_rir_len if self.max_rir_len is not None else self.sample_rate // 2


@dataclass(frozen=True)
class Rir:
    """Acoustic path impulse response."""

    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain NaN or Inf")


def sabine_min_rt60(dimensions) -> float:
    """Shortest achievable RT60 for a shoebox room (absorption == 1)."""
    lx, ly, lz = dimensions
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    return 24.0 * np.log(10.0) * volume / (SPEED_OF_SOUND * surface)


def reflection_coefficient(spec: RoomSpec) -> float:
    """Uniform wall reflection coefficient from RT60 via Sabine.

    rt60 == 0 means a perfectly dead room (coefficient 0).  Raises when the
    requested rt60 is so short that the implied absorption exceeds 1.
    """
    if spec.rt60 == 0:
        return 0.0
    absorption = sabine_min_rt60(spec.dimensions) / spec.rt60
    if absorption >= 1.0:
        raise ValueError(
            f"rt60 {spec.rt60} s is unachievable for this room "
            f"(Sabine absorption {absorption:.3f} >= 1)"
        )
    return float(np.sqrt(1.0 - absorption))


def generate_rir(spec: RoomSpec) -> Rir:
    """Image-method impulse response, truncated to spec.rir_len.

    Deterministic given the RoomSpec (the seed only matters when jitter > 0).
    The direct-path arrival lands at round(distance * fs / c).

    The taps are normalized to unit peak, so the direct-path tap is 1.0 and
    the DC gain of the path equals the sum of the (all non-negative) taps.
    A closed loop through such a path saturates once the amplifier gain
    exceeds the reciprocal of that sum.
    """
    beta = reflection_coefficient(spec)
    fs = spec.sample_rate
    n_taps = spec.rir_len
    dims = np.asarray(spec.dimensions, dtype=float)
    src = np.asarray(spec.source_pos, dtype=float)
    mic = np.asarray(spec.mic_pos, dtype=float)

    max_dist = (n_taps / fs) * SPEED_OF_SOUND
    taps = np.zeros(n_taps)
    rng = np.random.default_rng(spec.seed)

    if beta == 0.0:
        orders = [np.array([0]), np.array([0]), np.array([0])]
    else:
        counts = np.ceil(max_dist / (2.0 * dims)).astype(int)
        orders = [np.arange(-c, c + 1) for c in counts]
    gx, gy, gz = np.meshgrid(*orders, indexing="ij")
    r = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)  # (M, 3)

    for p in range(8):
        q = np.array([(p >> 0) & 1, (p >> 1) & 1, (p >> 2) & 1])
        if beta == 0.0 and np.any(q):
            continue
        pos = (1 - 2 * q)[None, :] * src[None, :] + 2.0 * r * dims[None, :]
        diff = pos - mic[None, :]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        n_refl = np.sum(np.abs(r - q[None, :]) + np.abs(r), axis=1)
        amp = (beta**n_refl) / (4.0 * np.pi * np.maximum(dist, SPEED_OF_SOUND / fs))
        arrival = dist * fs / SPEED_OF_SOUND
        if spec.jitter > 0:
            # Direct path stays put; higher-order images get timing jitter.
            wobble = rng.normal(0.0, spec.jitter, size=arrival.shape)
            arrival = np.where(n_refl > 0, arrival + wobble, arrival)
        idx = np.round(arrival).astype(int)
        ok = (idx >= 0) & (idx < n_taps)
        np.add.at(taps, idx[ok], amp[ok])

    peak = np.max(np.abs(taps))
    if peak == 0:
        raise ValueError("empty impulse response; max_rir_len too short for the direct path")
    return Rir(taps / peak, fs)


class StreamingConvolver:
    """Chunk-by-chunk direct-form FIR convolution with carried state.

    Output is computed with scipy's direct-form transposed filter and the
    filter state carried across calls, so any chunking of the input yields
    bit-identical output to one batch call on the concatenated signal.
    With ``rows`` it filters that many independent streams, given as
    (rows, n) chunks, in one call; each row is bitwise its solo stream.
    """

    def __init__(self, rir: Rir, rows: Optional[int] = None):
        self.rir = rir
        m = len(rir.taps) - 1
        self._state = np.zeros(m if rows is None else (rows, m)) if m else None

    def process(self, chunk: np.ndarray) -> np.ndarray:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size == 0:
            return chunk.copy()
        if self._state is None:
            return self.rir.taps[0] * chunk
        # a=[1, 0] forces the stateful direct-form C path (a scalar denominator
        # takes an np.convolve shortcut whose summation order depends on the
        # chunking, which would break bit-exact streaming/batch equality).
        out, self._state = lfilter(self.rir.taps, [1.0, 0.0], chunk, zi=self._state)
        return out


def convolve_batch(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Direct batch convolution truncated to len(x); the batch reference
    for StreamingConvolver (same filter kernel, zero initial state)."""
    x = np.asarray(x, dtype=np.float64)
    if len(taps) == 1:
        return taps[0] * x
    return _direct_form(x, np.asarray(taps, dtype=np.float64))


def _direct_form(x, taps):
    return lfilter(taps, [1.0, 0.0], x)


def convolve_batch_peak(x: np.ndarray, taps: np.ndarray) -> float:
    """``max |convolve_batch(x, taps)|``, bit for bit, for a fraction of its cost.

    An FFT convolution finds the samples that can hold the peak.  It and the
    direct form each sit within ~1e-13 ||x|| ||taps|| of the exact sums, far
    inside ``tol``, so the peak sample's FFT value is within ``2 tol`` of the
    FFT maximum.  Only those samples are recomputed with the direct form,
    each restarted from zero state ``len(taps) - 1`` samples early, which
    repeats the full run's arithmetic for that sample.
    """
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    n, m = len(x), len(taps)
    if m == 1 or n < 8 * m:
        return float(np.max(np.abs(convolve_batch(x, taps))))
    size = next_fast_len(n + m - 1, real=True)
    spec = np.fft.rfft(x, size)
    spec *= np.fft.rfft(taps, size)
    approx = np.abs(np.fft.irfft(spec, size)[:n])
    tol = 1e-9 * np.linalg.norm(x) * np.linalg.norm(taps)
    cand = np.flatnonzero(approx >= np.max(approx) - 2.0 * tol)
    if not np.isfinite(tol) or len(cand) * m > n // 4:
        return float(np.max(np.abs(convolve_batch(x, taps))))
    peak = 0.0
    for c in cand:
        lo = max(0, c - (m - 1))
        peak = max(peak, abs(_direct_form(x[lo: c + 1], taps)[-1]))
    return float(peak)


def save_rir(path: str, rir: Rir):
    """Write taps as 32-bit float WAV (.wav) or raw float64 with header (.rir)."""
    path = str(path)
    if path.endswith(".wav"):
        from .wavio import write_wav

        write_wav(path, rir.taps, rir.sample_rate, fmt="float32")
    else:
        with open(path, "wb") as fh:
            fh.write(b"HKRIR\x01")
            fh.write(np.uint32(rir.sample_rate).tobytes())
            fh.write(np.uint64(len(rir.taps)).tobytes())
            fh.write(rir.taps.astype("<f8").tobytes())


def load_rir(path: str) -> Rir:
    path = str(path)
    if path.endswith(".wav"):
        from .wavio import read_wav

        sig = read_wav(path)
        return Rir(sig.samples, sig.sample_rate)
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != b"HKRIR\x01":
            raise ValueError(f"not a howlkit RIR file: bad magic {magic!r}")
        fs = int(np.frombuffer(fh.read(4), dtype=np.uint32)[0])
        n = int(np.frombuffer(fh.read(8), dtype=np.uint64)[0])
        data = fh.read(8 * n)
        if len(data) != 8 * n:
            raise ValueError("truncated RIR file")
        return Rir(np.frombuffer(data, dtype="<f8").copy(), fs)
