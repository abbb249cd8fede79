"""Streaming howling suppressor: a Kalman core with optional learned parts.

One processor class covers every variant.  Bare, it is the classical
frequency-domain Kalman suppressor.  Attaching a mask network refines the
filter reference out of the microphone spectrum; attaching the covariance
network pair replaces the closed-form noise statistics.  Every variant runs
the same code path, so disabling the networks reproduces the classical
suppressor bit for bit.

The processor rebuilds its own loudspeaker reference: playback is the
processor's past output, amplified, delayed and clipped exactly the way the
loop does it, so no second capture channel is needed.  Between
begin_window() and end_window() every per-frame intermediate is recorded,
and the window loss is backpropagated through the mask application, the
covariance injection and (unless stop_grad_filter is set) the Kalman
recursion itself, producing exact gradients for all attached networks.
"""

import copy

import numpy as np

from .fdkf import ClassicalCovariances, CovariancePair, FdkfConfig, KalmanFilter, shift_in
from .loop import DelayLine
from .nets import mask_apply, normalize_log_power
from .signals import StftConfig, StreamingIstft, StreamingStft, log_power

MASK_SCOPES = ("everywhere", "predict_only")


class KalmanAhs:
    """Frame-synchronous suppressor usable directly as a loop callback.

    Call it with one hop of microphone samples, get one hop of output;
    ``latency`` declares the fixed analysis/synthesis delay.  ``gain``,
    ``delay_samples`` and ``sat`` must match the loop the processor runs in —
    they drive the internal loudspeaker mirror.

    ``mask_scope`` decides where a learned reference acts: "everywhere"
    (default) feeds it to prediction, gain and update alike; "predict_only"
    keeps the raw loudspeaker reference for gain and update.

    A tuple ``gain`` builds a sweep processor: one independent stream per
    gain, called with (B, hop) chunks and returning (B, hop) chunks, as a
    gain-sweep LoopScene hands them over.  It runs forward only: it records
    no training window.
    """

    def __init__(self, gain, delay_samples, sat=1.0, stft_cfg=None, fdkf_cfg=None,
                 mask_net=None, vv_net=None, dd_net=None,
                 mask_scope="everywhere", stop_grad_filter=False):
        stft_cfg = stft_cfg if stft_cfg is not None else StftConfig()
        fdkf_cfg = fdkf_cfg if fdkf_cfg is not None else FdkfConfig(num_bins=stft_cfg.num_bins)
        if fdkf_cfg.num_bins != stft_cfg.num_bins:
            raise ValueError(
                f"filter expects {fdkf_cfg.num_bins} bins but the transform produces "
                f"{stft_cfg.num_bins}"
            )
        gains = np.asarray(gain, dtype=np.float64)
        if gains.ndim > 1 or gains.size == 0 or np.any(gains < 0):
            raise ValueError("gain must be nonnegative: one value or a nonempty tuple")
        if delay_samples < stft_cfg.hop:
            raise ValueError("loop delay must be at least one hop for the reference mirror")
        if (vv_net is None) != (dd_net is None):
            raise ValueError("covariance networks come as a pair: both or neither")
        if mask_scope not in MASK_SCOPES:
            raise ValueError(f"mask_scope must be one of {MASK_SCOPES}")

        self.cfg = stft_cfg
        self.fcfg = fdkf_cfg
        self.rows = None if gains.ndim == 0 else len(gains)
        # (B, 1) in a sweep, so it scales each row's (hop,) chunk
        self.gain = float(gain) if self.rows is None else gains[:, None]
        self.delay_samples = int(delay_samples)
        self.sat = float(sat)
        self.mask_net = mask_net
        self.vv_net = vv_net
        self.dd_net = dd_net
        self.mask_scope = mask_scope
        self.stop_grad_filter = bool(stop_grad_filter)
        self.latency = stft_cfg.frame_len - stft_cfg.hop

        rows = self.rows
        self.filt = KalmanFilter(fdkf_cfg, rows)
        self._stft_y = StreamingStft(stft_cfg, rows)
        self._stft_x = StreamingStft(stft_cfg, rows)
        self._istft = StreamingIstft(stft_cfg, rows)
        self._mirror = DelayLine(self.delay_samples, rows)
        self._x_prev = np.zeros(self.filt.X_hist.shape[:-1], dtype=np.complex128)
        # separate reference history only when the learned reference is kept
        # out of the gain/update equations
        self._ref_hist = None
        if mask_scope == "predict_only":
            self._ref_hist = np.zeros_like(self.filt.X_hist)
        self._mask_state = mask_net.init_state(rows) if mask_net is not None else None
        self._vv_state = vv_net.init_state(rows) if vv_net is not None else None
        self._dd_state = dd_net.init_state(rows) if dd_net is not None else None
        self._classical = ClassicalCovariances(fdkf_cfg, rows) if vv_net is None else None
        self._tape = None
        self.frames_seen = 0

    @classmethod
    def for_scene(cls, scene, **kwargs):
        """Build a processor matched to a loop scene's gain/delay/clip."""
        return cls(scene.gain, scene.delay_samples, sat=scene.sat, **kwargs)

    # ----------------------------------------------------------- processing

    def __call__(self, chunk):
        """One hop in, one hop out, mirroring the loudspeaker internally."""
        x_chunk = self._mirror.peek(self.cfg.hop)
        out = self.step_open(chunk, x_chunk)
        self._mirror.push(np.clip(self.gain * out, -self.sat, self.sat))
        return out

    def step_open(self, y_chunk, x_chunk):
        """Process one hop with an externally supplied loudspeaker chunk.

        Verification hook: lets a test drive the processor open-loop with
        frozen inputs.  Normal use is __call__, which reconstructs the
        loudspeaker chunk from the processor's own output history.
        """
        y_frame = self._stft_y.push(np.asarray(y_chunk, dtype=np.float64))
        x_frame = self._stft_x.push(np.asarray(x_chunk, dtype=np.float64))
        s_hat = self._process_frame(y_frame, x_frame)
        return self._istft.push(s_hat)

    def _process_frame(self, y_frame, x_raw):
        filt = self.filt
        mcache = None
        if self.mask_net is not None:
            feat = np.concatenate([
                normalize_log_power(log_power(y_frame)),
                normalize_log_power(log_power(self._x_prev)),
            ], axis=-1)
            m, self._mask_state, mcache = self.mask_net.step(feat, self._mask_state)
            ref = mask_apply(m, y_frame)
        else:
            ref = x_raw

        filt.push_reference(ref if self._ref_hist is None else x_raw)
        if self._ref_hist is None:
            hist_pred = filt.X_hist
        else:
            hist_pred = self._ref_hist = shift_in(self._ref_hist, ref)
        s_hat = filt.predict(y_frame, hist_pred)

        W_pre, P_pre = filt.W, filt.P
        vcache = dcache = rss = None
        if self.vv_net is not None:
            vv, self._vv_state, vcache = self.vv_net.step(np.abs(s_hat), self._vv_state)
            rss = np.sqrt(np.sum(W_pre.real**2 + W_pre.imag**2, axis=-1))
            dd_out, self._dd_state, dcache = self.dd_net.step(rss, self._dd_state)
            taps = self.fcfg.num_taps
            cov = CovariancePair(vv, np.repeat((dd_out / taps)[..., None], taps, axis=-1))
        else:
            cov = self._classical(s_hat, filt)

        K = filt.gain(cov)
        filt.update(K, s_hat, cov)

        if self._tape is not None:
            # every stored array is a fresh object the forward pass never
            # mutates afterwards, so references suffice
            self._tape.append({
                "y": y_frame, "mcache": mcache,
                "hist_pred": hist_pred, "hist_gain": filt.X_hist,
                "W": W_pre, "P": P_pre, "s_hat": s_hat, "K": K,
                "vv": cov.psi_vv, "vcache": vcache, "dcache": dcache, "rss": rss,
                "pos": filt.P > 0,
            })
        self._x_prev = x_raw
        self.frames_seen += 1
        return s_hat

    # ------------------------------------------------------------- training

    def begin_window(self):
        if self.rows is not None:
            raise ValueError("a gain-sweep processor records no training window")
        if self._tape is not None:
            raise RuntimeError("a window is already recording")
        self._tape = []

    def abort_window(self):
        """Drop the recorded window without computing anything."""
        self._tape = None

    @property
    def window_frames(self):
        return 0 if self._tape is None else len(self._tape)

    def end_window(self, target_mags, want_grads=True):
        """Close the recorded window against target magnitudes.

        target_mags has one row of per-bin magnitudes per recorded frame.
        Returns (mean absolute magnitude error, {net name: gradient dict})
        with entries only for the networks actually attached; the tape is
        released either way.
        """
        if self._tape is None:
            raise RuntimeError("no window is recording")
        tape, self._tape = self._tape, None
        if not tape:
            raise ValueError("window is empty")
        targets = np.asarray(target_mags, dtype=np.float64)
        bins = self.fcfg.num_bins
        if targets.shape != (len(tape), bins):
            raise ValueError(
                f"targets must have shape ({len(tape)}, {bins}), got {targets.shape}")
        s_mags = np.abs(np.array([e["s_hat"] for e in tape]))
        diff = s_mags - targets
        loss = float(np.mean(np.abs(diff)))
        if not want_grads:
            return loss, {}
        return loss, self._backward(tape, s_mags, np.sign(diff) / diff.size)

    def _backward(self, tape, s_mags, gmag):
        """Reverse the window.

        Complex adjoint convention: for z = a + ib the carried gradient is
        dL/da + i dL/db.  Then z = u*v gives gu += gz*conj(v); r = |z|^2
        gives gz += 2*gr*z; and a real factor p in z = p*w gives
        gp += Re(gz*conj(w)).
        """
        fcfg = self.fcfg
        A, A2, alpha = fcfg.A, fcfg.A**2, fcfg.alpha
        taps, eps, beta = fcfg.num_taps, fcfg.eps, fcfg.beta
        everywhere = self._ref_hist is None

        grads = {}
        if self.mask_net is not None:
            grads["mask"] = self.mask_net.zero_grads()
            mask_sadj = self.mask_net.init_state()
        if self.vv_net is not None:
            grads["vv"] = self.vv_net.zero_grads()
            grads["dd"] = self.dd_net.zero_grads()
            vv_sadj = self.vv_net.init_state()
            dd_sadj = self.dd_net.init_state()

        shape = (fcfg.num_bins, taps)
        gW = np.zeros(shape, dtype=np.complex128)   # dL/dW(k+1)
        gP = np.zeros(shape)                         # dL/dP(k+1)
        gH = np.zeros(shape, dtype=np.complex128)   # dL/d reference history
        gvv_carry = np.zeros(fcfg.num_bins)          # classical smoother state

        for k in reversed(range(len(tape))):
            e = tape[k]
            if self.stop_grad_filter:
                gW[:] = 0.0
                gP[:] = 0.0
            X, Hp = e["hist_gain"], e["hist_pred"]
            W, P, K, s_hat, vv = e["W"], e["P"], e["K"], e["s_hat"], e["vv"]
            s_mag = s_mags[k]
            unit = np.where(s_mag > 0, 1.0 / np.maximum(s_mag, 1e-300), 0.0) * s_hat
            gS = gmag[k] * unit

            # covariance update P(k+1) = max(A^2 (1 - a Re(KX)) P + dd, 0)
            gPraw = gP * e["pos"]
            gdd = gPraw
            decay = 1.0 - alpha * (K * X).real
            a2_gPraw = A2 * gPraw
            g_decay = a2_gPraw * P
            gP_new = a2_gPraw * decay
            conj_X, conj_K = np.conj(X), np.conj(K)
            g_K_decay = -alpha * g_decay
            gK = g_K_decay * conj_X
            if everywhere:
                gH_frame = g_K_decay * conj_K
            else:
                gH_frame = np.zeros(shape, dtype=np.complex128)

            # weight update W(k+1) = A (W + K s_hat)
            gW_new = A * gW
            gK += gW_new * np.conj(s_hat)[:, None]
            gS = gS + A * np.sum(gW * conj_K, axis=1)

            # gain K = P conj(X) / (sum |X|^2 P + vv + eps)
            xpow = X.real**2 + X.imag**2
            denom = np.sum(xpow * P, axis=1) + vv + eps
            PX = P * X  # conj(P conj(X))
            g_t1 = gK / denom[:, None]
            gdenom = -np.sum((gK * PX).real, axis=1) / (denom * denom)
            gP_new += (g_t1 * X).real
            gP_new += gdenom[:, None] * xpow
            if everywhere:
                gH_frame += P * np.conj(g_t1)
                gH_frame += 2.0 * gdenom[:, None] * PX
            gvv = gdenom

            # covariance source
            if self.vv_net is not None:
                dmag, vv_sadj = self.vv_net.step_back(e["vcache"], gvv, vv_sadj, grads["vv"])
                gS = gS + dmag * unit
                g_ddout = np.sum(gdd, axis=1) / taps
                drss, dd_sadj = self.dd_net.step_back(e["dcache"], g_ddout, dd_sadj, grads["dd"])
                rss = e["rss"]
                gW_new += (np.where(rss > 0, drss / np.maximum(rss, 1e-300), 0.0))[:, None] * W
            else:
                g_sm = gvv + gvv_carry  # vv(k) = b vv(k-1) + (1-b) |s_hat|^2
                gS = gS + (2.0 * (1.0 - beta)) * g_sm * s_hat
                gvv_carry = beta * g_sm
                gW_new += (2.0 * (1.0 - A2)) * gdd * W

            # prediction s_hat = Y - sum_l Hp W
            gW_new += -(conj_X if Hp is X else np.conj(Hp)) * gS[:, None]
            gH_frame += -np.conj(W) * gS[:, None]

            # history shift: slot 0 holds this frame's reference
            gH_tot = gH_frame + gH
            gref = gH_tot[:, 0]
            gH = np.zeros(shape, dtype=np.complex128)
            gH[:, :-1] = gH_tot[:, 1:]

            if self.mask_net is not None:
                gm = (gref * np.conj(e["y"])).real
                _, mask_sadj = self.mask_net.step_back(e["mcache"], gm, mask_sadj, grads["mask"])

            gW, gP = gW_new, gP_new
        return grads

    # ----------------------------------------------------- state management

    def _shared(self):
        """deepcopy memo that maps each attached net to itself."""
        return {id(net): net for net in (self.mask_net, self.vv_net, self.dd_net)
                if net is not None}

    def snapshot(self):
        """Deep copy of all stream state; the attached nets are shared, not copied."""
        state = {k: v for k, v in vars(self).items() if k != "_tape"}
        return copy.deepcopy(state, self._shared())

    def restore(self, snap):
        """Reset all stream state to a snapshot taken on this processor.

        The snapshot stays reusable, and an open window is dropped.
        """
        vars(self).update(copy.deepcopy(snap, self._shared()))
        self._tape = None
