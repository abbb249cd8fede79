"""Per-bin frequency-domain Kalman filter for feedback-path tracking.

The feedback path is modelled per STFT bin as a length-L filter across the
most recent reference frames, so the near-end estimate for bin b is

    S_hat[b] = Y[b] - sum_l X_hist[b, l] * W[b, l]

W tracks the path, P is its error covariance kept diagonal (one nonnegative
value per bin and tap), and X_hist holds the last L reference frames, newest
first, with their powers |X|^2 in X_pow.  Observation and process
covariances (psi_vv, psi_dd) are supplied fresh every frame — from the
closed-form source below, or from learned estimators.

A filter built with ``rows`` tracks that many independent streams at once:
every array above gains a leading row axis and every reduction runs over
the last axis, so each row is bitwise the filter it would be alone.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FdkfConfig:
    """Filter sizes and recursion constants.

    A is the state transition factor, alpha scales the gain term inside the
    covariance update, beta the smoothing of the classical observation
    covariance.  eps regularizes the gain denominator on silent frames.
    """

    num_taps: int = 20
    A: float = 0.999
    alpha: float = 0.5
    p_init: float = 1e-2
    eps: float = 1e-10
    beta: float = 0.9

    def __post_init__(self):
        if self.num_taps < 1:
            raise ValueError("num_taps must be at least 1")
        if not 0.0 < self.A <= 1.0:
            raise ValueError("A must be in (0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.p_init < np.inf:
            raise ValueError("p_init must be finite and positive")
        if not 0.0 <= self.eps < np.inf:
            raise ValueError("eps must be finite and nonnegative")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")


@dataclass(frozen=True)
class CovariancePair:
    """Per-frame noise covariances: psi_vv per bin, psi_dd per bin and tap,
    or per bin as a (..., bins, 1) column that broadcasts over the taps.

    A non-finite value raises ArithmeticError (a numeric failure; the CLI
    exits 4), a negative one ValueError.
    """

    psi_vv: np.ndarray
    psi_dd: np.ndarray

    def __post_init__(self):
        for name, arr in (("psi_vv", self.psi_vv), ("psi_dd", self.psi_dd)):
            # one min/max pass; NaN, +-inf and negatives all fail it
            if arr.size == 0 or (np.minimum.reduce(arr, axis=None) >= 0
                                 and np.maximum.reduce(arr, axis=None) < np.inf):
                continue
            if not np.all(np.isfinite(arr)):
                raise ArithmeticError(f"{name} must be finite")
            raise ValueError(f"{name} must be nonnegative")


class KalmanFilter:
    """Stateful per-bin Kalman recursion; one instance per audio stream.

    Call order per frame: push_reference(X_k), predict(Y_k), gain(cov),
    update(K, S_hat, cov).  gain leaves its denominator and the reciprocal
    in ``denom`` and ``inv_denom``, for training tapes.
    """

    def __init__(self, cfg: FdkfConfig, num_bins: int, rows: Optional[int] = None):
        self.cfg = cfg
        shape = (() if rows is None else (rows,)) + (num_bins, cfg.num_taps)
        self.W = np.zeros(shape, dtype=np.complex128)
        self.P = np.full(shape, cfg.p_init, dtype=np.float64)
        self.X_hist = np.zeros(shape, dtype=np.complex128)
        self.X_pow = np.zeros(shape)
        # covariance floor hits per row, for diagnostics
        self.clamps = np.zeros(shape[:-2], dtype=np.int64)

    @property
    def clamp_count(self) -> int:
        """Covariance floor hits, summed over all rows."""
        return int(self.clamps.sum())

    def keep(self, rows):
        """Continue with only these rows, in this order."""
        self.W, self.P, self.X_hist, self.X_pow, self.clamps = (
            a[rows] for a in (self.W, self.P, self.X_hist, self.X_pow, self.clamps))

    def _check_frame(self, frame, name):
        frame = np.asarray(frame)
        if frame.shape != self.X_hist.shape[:-1]:
            raise ValueError(f"{name} must have shape {self.X_hist.shape[:-1]}, got {frame.shape}")
        return frame

    def push_reference(self, x_new):
        """Place the new frame at slot 0 and every older frame one slot later,
        in X_hist and X_pow; only the new frame's power is computed.

        Builds fresh arrays, never a shift in place: training tapes keep the
        previous history by reference.
        """
        new = self._check_frame(x_new, "reference frame")
        hist, power = np.empty_like(self.X_hist), np.empty_like(self.X_pow)
        hist[..., 1:], power[..., 1:] = self.X_hist[..., :-1], self.X_pow[..., :-1]
        hist[..., 0], power[..., 0] = new, new.real**2 + new.imag**2
        self.X_hist, self.X_pow = hist, power

    def predict(self, y):
        """Near-end estimate: microphone frame minus the modelled feedback."""
        y = self._check_frame(y, "microphone frame")
        return y - np.add.reduce(self.X_hist * self.W, axis=-1)

    def gain(self, cov: CovariancePair) -> np.ndarray:
        """Kalman gain per bin and tap, by the reciprocal of its denominator."""
        denom = np.add.reduce(self.X_pow * self.P, axis=-1) + cov.psi_vv + self.cfg.eps
        self.denom, self.inv_denom = denom, 1.0 / denom
        return (self.P * np.conj(self.X_hist)) * self.inv_denom[..., None]

    def update(self, K, s_hat, cov: CovariancePair):
        """Advance W and P one frame; P is floored at zero (counted)."""
        A = self.cfg.A
        self.W = A * (self.W + K * s_hat[..., None])
        decay = 1.0 - self.cfg.alpha * (K * self.X_hist).real
        P = (A * A) * decay * self.P + cov.psi_dd
        neg = P < 0
        if neg.any():
            self.clamps += np.count_nonzero(neg, axis=(-2, -1))
            P[neg] = 0.0
        self.P = P


class ClassicalCovariances:
    """Closed-form covariance source.

    psi_vv is an exponentially smoothed near-end power estimate and psi_dd
    ties process noise to the tap magnitudes, so the covariances need no
    learned model.  Stateful: one instance per stream, or per ``rows``
    streams of a batched filter.
    """

    def __init__(self, cfg: FdkfConfig, num_bins: int, rows: Optional[int] = None):
        self.cfg = cfg
        self.smoothed_vv = np.zeros(num_bins if rows is None else (rows, num_bins))

    def keep(self, rows):
        """Continue with only these rows, in this order."""
        self.smoothed_vv = self.smoothed_vv[rows]

    def __call__(self, s_hat, filt: KalmanFilter) -> CovariancePair:
        b = self.cfg.beta
        power = np.abs(s_hat) ** 2
        self.smoothed_vv = b * self.smoothed_vv + (1.0 - b) * power
        psi_dd = (1.0 - self.cfg.A**2) * (filt.W.real**2 + filt.W.imag**2)
        return CovariancePair(self.smoothed_vv.copy(), psi_dd)
