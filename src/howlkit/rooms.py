"""Image-method room impulse responses and streaming convolution.

The image method follows Allen and Berkeley for a shoebox room with a
frequency-independent wall reflection coefficient derived from the target
RT60 via Sabine's formula.  Image arrival times are rounded to the nearest
sample (no fractional-delay interpolation), which keeps generation
deterministic and fast at the cost of some high-frequency accuracy.
Generated responses are normalized to unit peak amplitude so that the
loudspeaker-to-microphone path combined with amplification gains in [1, 3]
can actually drive the simulated loop unstable.

Rounded arrivals also leave most taps zero: a 1024-tap feedback path has
~300-600 nonzero taps.  Every FIR here (streaming, batch and the batch
peak) runs one kernel: a precomputed sparse Toeplitz matrix of the nonzero
taps, applied with one scipy CSR product per block of 64 samples, which
reproduces ``scipy.signal.lfilter``'s output bit for bit (signed zeros
aside; see StreamingConvolver).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import next_fast_len
from scipy.sparse import csr_matrix

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


# samples per kernel product: the loop's default hop
_BLOCK = 64


def _kernel(parts, width: int) -> csr_matrix:
    """Sparse Toeplitz rows over a vector of ``width`` samples.

    ``parts`` is a list of (taps, ends) pairs.  Each end gives one row, in
    order, that sums ``taps[k] * v[end - k]`` over the nonzero taps only,
    highest ``k`` first, so the columns of a row ascend.
    """
    # filled in place: concatenated pieces of a near path's kernel are
    # megabytes of temporaries, which stay resident once freed
    parts = [(taps, np.asarray(ends, np.int32), np.flatnonzero(taps)[::-1].astype(np.int32))
             for taps, ends in parts]
    counts = np.concatenate([np.full(len(ends), len(k)) for _, ends, k in parts])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    data, cols = np.empty(indptr[-1]), np.empty(indptr[-1], np.int32)
    lo = 0
    for taps, ends, k in parts:
        hi = lo + len(ends) * len(k)
        data[lo:hi].reshape(len(ends), len(k))[:] = taps[k]
        np.subtract(ends[:, None], k, out=cols[lo:hi].reshape(len(ends), len(k)))
        lo = hi
    return csr_matrix((data, cols, indptr), shape=(len(indptr) - 1, width))


def _stream_rows(taps, start: int, m: int):
    """Kernel rows of one stream whose window [m inputs, block] begins at
    column ``start``: the block's outputs, then the sum of its inputs, which
    is finite only when they all are."""
    end = start + m + _BLOCK - 1
    return [(taps, end - _BLOCK + 1 + np.arange(_BLOCK)), (np.ones(_BLOCK), np.array([end]))]


class StreamingConvolver:
    """Chunk-by-chunk FIR convolution with carried state.

    Each block of up to 64 samples is one product of a precomputed sparse
    Toeplitz kernel with the window [last ``len(taps) - 1`` inputs, block].
    A kernel row holds only the path's nonzero taps, highest tap first, and
    scipy's CSR product sums each output from +0.0 in that order, with no
    fused multiply-add.  That is the sequence of IEEE operations of
    ``scipy.signal.lfilter(taps, [1.0, 0.0], x, zi=...)`` (transposed direct
    form) without its ``0*x`` and ``0*y`` terms, so the output is that
    filter's, bit for bit, and any chunking of the input gives the bits of
    one batch call.  Two edge cases: from the first sample whose input or
    output is not finite, lfilter's state is NaN, so that sample is
    ``Z0 + taps[0]*x`` and every later output NaN, here too.  And an exact
    zero output is always +0.0 here, where lfilter can give -0.0: only when
    every product in the window is -0.0 and none of the last
    ``len(taps) - 1`` outputs has its sign bit set, as now and then when
    every input is -0.0.  In a closed loop that takes ``len(taps)``
    loudspeaker samples of -0.0 in a row, as at gain 0 with a suppressor
    output that stays negative.

    With ``rows`` it filters that many independent streams, given as
    (rows, n) chunks, through the one path in one multi-column product.
    Given a list of Rirs, one per row, it runs one block-diagonal kernel.
    Each row is bitwise its solo stream.
    """

    def __init__(self, rir, rows: Optional[int] = None):
        self.rir = rir
        self._paths = None if isinstance(rir, Rir) else list(rir)
        self._m = max(len(p.taps) for p in self._paths or [rir]) - 1
        self._dead = None  # per-row flags, once a row has met a non-finite sample
        if self._paths is None:
            # time runs down the window, one column per row
            width = self._m + _BLOCK
            self._win = np.zeros(width if rows is None else (width, rows))
            self._kernel = _kernel(_stream_rows(rir.taps, 0, self._m), width)
        else:
            self._win = np.zeros((len(self._paths), self._m + _BLOCK))
            self._stack_kernel()

    def _stack_kernel(self):
        width = self._win.shape[-1]
        parts = [row for b, p in enumerate(self._paths)
                 for row in _stream_rows(p.taps, b * width, self._m)]
        self._kernel = _kernel(parts, self._win.size)

    def keep(self, rows):
        """Continue with only these rows, in this order."""
        if self._dead is not None:
            self._dead = self._dead[rows]
        if self._paths is None:
            self._win = self._win[:, rows]
        else:
            self._paths = [self._paths[i] for i in rows]
            self._win = self._win[rows]
            self._stack_kernel()

    def process(self, chunk: np.ndarray) -> np.ndarray:
        return self._run(np.asarray(chunk, dtype=np.float64))

    def _run(self, chunk):
        n = chunk.shape[-1]
        if n <= _BLOCK:
            return self._block(chunk)
        out = np.empty(chunk.shape)
        for lo in range(0, n, _BLOCK):
            out[..., lo:lo + _BLOCK] = self._block(chunk[..., lo:lo + _BLOCK])
        return out

    def _block(self, chunk):
        n, m, win = chunk.shape[-1], self._m, self._win
        if self._paths is None:
            win[m:m + n] = chunk.T
            res = self._kernel @ win
            win[:m] = win[n:n + m]
            out = res[:n].T
        else:
            win[:, m:m + n] = chunk
            res = (self._kernel @ win.ravel()).reshape(len(win), -1)
            win[:, :m] = win[:, n:n + m]
            out = res[:, :n]
        if self._dead is not None or not np.isfinite(res).all():
            self._poison(np.atleast_2d(chunk), np.atleast_2d(out))
        return out

    def _poison(self, xs, ys):
        """lfilter's output from each row's first non-finite input or output on."""
        dead = np.zeros(len(ys), bool) if self._dead is None else self._dead
        ys[dead] = np.nan
        bad = ~(np.isfinite(xs) & np.isfinite(ys))
        for r in np.flatnonzero(bad.any(axis=1) & ~dead):
            i = bad[r].argmax()
            b0 = (self.rir if self._paths is None else self._paths[r]).taps[0]
            if b0 == 0:  # not in the kernel, but lfilter adds 0 * x
                with np.errstate(invalid="ignore"):
                    ys[r, i] += b0 * xs[r, i]
            ys[r, i + 1:] = np.nan
            dead[r] = True
        self._dead = dead


def convolve_batch(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Batch convolution truncated to len(x): StreamingConvolver's kernel run
    block by block from a zero state."""
    x = np.asarray(x, dtype=np.float64)
    return StreamingConvolver(Rir(taps, 1))._run(x)


def convolve_batch_peak(x: np.ndarray, taps: np.ndarray) -> float:
    """``max |convolve_batch(x, taps)|``, bit for bit, for a fraction of its cost.

    An FFT convolution finds the samples that can hold the peak.  It and the
    kernel each sit within ~1e-13 ||x|| ||taps|| of the exact sums, far
    inside ``tol``, so the peak sample's FFT value is within ``2 tol`` of the
    FFT maximum.  Only those samples are recomputed, each as one kernel row,
    which repeats the full run's arithmetic for that sample.
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
    # m - 1 leading zeros stand for the zero state before the first sample
    padded = np.concatenate((np.zeros(m - 1), x))
    return float(np.max(np.abs(_kernel([(taps, cand + m - 1)], len(padded)) @ padded)))


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
