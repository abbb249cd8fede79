"""Streaming howling suppressor: a Kalman core with optional learned parts.

One processor class covers every variant.  Bare, it is the classical
frequency-domain Kalman suppressor.  Attaching a mask network refines the
filter reference out of the microphone spectrum; attaching the covariance
network pair replaces the closed-form noise statistics.  Every variant runs
the same code path, so disabling the networks reproduces the classical
suppressor bit for bit.

The processor rebuilds its own loudspeaker reference: playback is the
processor's past output, amplified, delayed and clipped exactly the way the
loop does it, so no second capture channel is needed.  The loop delay fixes
that reference a span ahead (the most whole hops within the shortest row
delay), so the mirror transforms a span's reference frames at once.  A
call may hand over many microphone hops; those within one span are analysed
and synthesised at once, with one filter frame per hop.  Between
begin_window() and end_window() every per-frame intermediate is recorded,
and the window loss is backpropagated through the mask application, the
covariance injection and the Kalman recursion itself, producing exact
gradients for all attached networks.
"""

from dataclasses import dataclass

import numpy as np

from .fdkf import ClassicalCovariances, CovariancePair, FdkfConfig, KalmanFilter
from .loop import delayed
from .nets import HiddenState, mask_apply, normalize_log_power
from .signals import StftConfig, StreamingIstft, StreamingStft, log_power


@dataclass(frozen=True)
class SuppressorSpec:
    """The transform and filter a suppressor runs with: one filter recursion
    per transform bin.  Trained nets are tied to it, so checkpoints record it."""

    stft: StftConfig = StftConfig()
    fdkf: FdkfConfig = FdkfConfig()


class KalmanAhs:
    """Frame-synchronous suppressor usable directly as a loop callback.

    Call it with any whole number of hops of microphone samples, get as
    many hops of output, bit for bit those of one-hop calls; ``latency``
    declares the fixed analysis/synthesis delay.  ``gain``,
    ``delay_samples`` and ``sat`` must match the loop the processor runs in —
    they drive the internal loudspeaker mirror, which turns the processor's
    own output into reference frames (and mask-net features) a span at a time.

    Tuples of ``gain``, ``delay_samples`` and ``sat``, one value per row,
    build a multi-row processor: one independent stream per row, called
    with (B, k * hop) chunks and returning (B, k * hop) chunks, as a stack
    of scenes hands them over.  Every array it keeps and records carries the
    leading row axis, every reduction runs over the last axis, and each row
    is bitwise the processor it would be alone, training windows included.
    ``spec`` gives the transform and filter (``SuppressorSpec()`` when omitted).
    """

    def __init__(self, gain, delay_samples, sat=1.0, spec=None,
                 mask_net=None, vv_net=None, dd_net=None):
        spec = spec if spec is not None else SuppressorSpec()
        stft_cfg, fdkf_cfg = spec.stft, spec.fdkf
        gains = np.asarray(gain, dtype=np.float64)
        if gains.ndim > 1 or gains.size == 0 or not np.all(np.isfinite(gains) & (gains >= 0)):
            raise ValueError("gain must be finite and nonnegative: one value or a nonempty tuple")
        rows = None if gains.ndim == 0 else len(gains)
        for name, value in (("delay_samples", delay_samples), ("sat", sat)):
            if np.ndim(value) != gains.ndim or (rows is not None and len(value) != rows):
                raise ValueError(f"{name} gives one value per row of a tuple gain")
        sats = np.array(sat, dtype=np.float64)
        if not np.all(np.isfinite(sats) & (sats > 0)):
            raise ValueError("sat must be finite and positive")
        if np.min(delay_samples) < stft_cfg.hop:
            raise ValueError("loop delay must be at least one hop for the reference mirror")
        if (vv_net is None) != (dd_net is None):
            raise ValueError("covariance networks come as a pair: both or neither")

        self.cfg = stft_cfg
        self.fcfg = fdkf_cfg
        self.rows = rows
        # (B, 1) with rows, so they act on each row's (hop,) chunk
        if rows is None:
            self.gain, self.delay_samples, self.sat = float(gain), int(delay_samples), float(sat)
        else:
            self.gain = gains[:, None]
            self.delay_samples = tuple(int(d) for d in delay_samples)
            self.sat = sats[:, None]
        self.mask_net = mask_net
        self.vv_net = vv_net
        self.dd_net = dd_net
        self.latency = stft_cfg.frame_len - stft_cfg.hop

        self.filt = KalmanFilter(fdkf_cfg, stft_cfg.num_bins, rows)
        self._stft_y = StreamingStft(stft_cfg, rows)
        self._stft_x = StreamingStft(stft_cfg, rows)
        self._istft = StreamingIstft(stft_cfg, rows)
        # each row's clipped playback over the longest delay, then this span's outputs
        self._span = self._x_next = int(np.min(delay_samples)) // stft_cfg.hop
        size = int(np.max(delay_samples)) + self._span * stft_cfg.hop
        self._played = np.zeros(self.filt.W.shape[:-2] + (size,))
        self._x_frames = self._x_feats = None
        # the previous reference frame's mask-net feature, zeros at the start
        self._x_feat = (normalize_log_power(log_power(np.zeros(self.filt.W.shape[:-1])))
                        if mask_net is not None else None)
        self._mask_state = mask_net.init_state(rows) if mask_net is not None else None
        self._vv_state = vv_net.init_state(rows) if vv_net is not None else None
        self._dd_state = dd_net.init_state(rows) if dd_net is not None else None
        self._classical = (ClassicalCovariances(fdkf_cfg, stft_cfg.num_bins, rows)
                           if vv_net is None else None)
        self._tape = None

    @classmethod
    def for_scene(cls, scene, **kwargs):
        """Build a processor matched to a loop scene's gain/delay/clip, or
        to each scene of a stack, one row each."""
        if isinstance(scene, (list, tuple)):
            return cls(tuple(sc.gain for sc in scene), tuple(sc.delay_samples for sc in scene),
                       sat=tuple(sc.sat for sc in scene), **kwargs)
        return cls(scene.gain, scene.delay_samples, sat=scene.sat, **kwargs)

    def keep(self, rows):
        """Continue a multi-row processor with only these rows, in this
        order; an open window keeps their part of the tape."""
        self.rows = len(rows)
        self.gain = self.gain[rows]
        self.sat = self.sat[rows]
        self.delay_samples = tuple(self.delay_samples[i] for i in rows)
        for part in (self.filt, self._stft_y, self._stft_x, self._istft, self._classical):
            if part is not None:
                part.keep(rows)
        self._played, self._x_frames, self._x_feats, self._x_feat = _take(
            (self._played, self._x_frames, self._x_feats, self._x_feat), rows)
        self._mask_state, self._vv_state, self._dd_state = _take(
            (self._mask_state, self._vv_state, self._dd_state), rows)
        if self._tape is not None:
            # entry by entry, so the old tape is freed as the new one grows
            for k, entry in enumerate(self._tape):
                self._tape[k] = _take(entry, rows)

    # ----------------------------------------------------------- processing

    def __call__(self, chunk):
        """Whole hops of microphone samples in, as many hops out, mirroring
        the loudspeaker internally.

        A chunk of k hops gives the bits of k one-hop calls.  It is cut where
        the mirror's spans end, and each piece is transformed, synthesised
        and recorded at once, with one Kalman frame per hop.
        """
        hop, y = self.cfg.hop, np.asarray(chunk, dtype=np.float64)
        if y.shape[-1] == hop:  # one hop, as a live stream calls it
            if self._x_next == self._span:
                self._mirror_span()
            j = self._x_next
            feat = None if self._x_feats is None else self._x_feats[..., j, :]
            out = self._process_hop(y, self._x_frames[..., j, :], feat)
            start = self._played.shape[-1] - (self._span - j) * hop
            self._played[..., start:start + hop] = out
            self._x_next = j + 1
            return out
        k = y.shape[-1] // hop
        if k < 1 or y.shape[-1] != k * hop:
            raise ValueError(f"chunk must be whole hops of {hop} per row, got {y.shape}")
        y = y.reshape(y.shape[:-1] + (k, hop))
        pieces, done = [], 0
        while done < k:
            if self._x_next == self._span:
                self._mirror_span()
            n = min(k - done, self._span - self._x_next)
            pieces.append(self._process_hops(y[..., done:done + n, :]))
            done += n
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=-1)

    def _process_hops(self, y_hops):
        """Outputs of the (..., n, hop) microphone hops from ``_x_next`` on,
        all within one mirror span, kept for the mirror."""
        j, n = self._x_next, y_hops.shape[-2]
        Y = self._stft_y.push(y_hops)
        feats = None
        if self.mask_net is not None:
            # each hop's features, then the previous reference frame's
            bins = Y.shape[-1]
            feats = np.empty(Y.shape[:-1] + (2 * bins,))
            feats[..., :bins] = normalize_log_power(log_power(Y))
            feats[..., 0, bins:] = self._x_feat
            feats[..., 1:, bins:] = self._x_feats[..., j:j + n - 1, :]
            self._x_feat = self._x_feats[..., j + n - 1, :]
        S = np.empty(Y.shape, dtype=np.complex128)
        for i in range(n):
            S[..., i, :] = self._kalman_frame(Y[..., i, :], self._x_frames[..., j + i, :],
                                              None if feats is None else feats[..., i, :])
        out = self._istft.push(S)
        start = self._played.shape[-1] - (self._span - j) * self.cfg.hop
        self._played[..., start:start + out.shape[-1]] = out
        self._x_next = j + n
        return out

    def _mirror_span(self):
        """Clip the last span's outputs, then transform the next span's reference frames."""
        played, hop = self._played, self.cfg.hop
        now, span = played.shape[-1], self._span * hop
        last = played[..., now - span:]
        np.minimum(np.maximum(np.multiply(self.gain, last, out=last), -self.sat, out=last),
                   self.sat, out=last)
        heard = delayed(np.atleast_2d(played), now, span, np.atleast_1d(self.delay_samples))
        played[..., :now - span] = played[..., span:]
        self._x_frames = self._stft_x.push(heard.reshape(played.shape[:-1] + (self._span, hop)))
        self._x_next = 0
        if self.mask_net is not None:
            self._x_feats = normalize_log_power(log_power(self._x_frames))

    def step_open(self, y_chunk, x_chunk):
        """Process one hop with an externally supplied loudspeaker chunk.

        Verification hook: lets a test drive the processor open-loop with
        frozen inputs.  Normal use is __call__, which reconstructs the
        loudspeaker chunk from the processor's own output history.
        """
        x_frame = self._stft_x.push(np.asarray(x_chunk, dtype=np.float64))
        feat = None if self.mask_net is None else normalize_log_power(log_power(x_frame))
        return self._process_hop(np.asarray(y_chunk, dtype=np.float64), x_frame, feat)

    def _process_hop(self, y_chunk, x_raw, x_feat):
        y_frame = self._stft_y.push(y_chunk)
        feat = None
        if self.mask_net is not None:
            feat = np.concatenate([normalize_log_power(log_power(y_frame)), self._x_feat], axis=-1)
        s_hat = self._kalman_frame(y_frame, x_raw, feat)
        self._x_feat = x_feat
        return self._istft.push(s_hat)

    def _kalman_frame(self, y_frame, x_raw, feat):
        """One filter frame; ``feat`` is the mask net's input when it has one."""
        filt = self.filt
        mcache = None
        if self.mask_net is not None:
            m, self._mask_state, mcache = self.mask_net.step(feat, self._mask_state)
            ref = mask_apply(m, y_frame)
        else:
            ref = x_raw

        filt.push_reference(ref)
        s_hat = filt.predict(y_frame)

        W_pre, P_pre = filt.W, filt.P
        vcache = dcache = rss = None
        if self.vv_net is not None:
            vv, self._vv_state, vcache = self.vv_net.step(np.abs(s_hat), self._vv_state)
            rss = np.sqrt(np.add.reduce(W_pre.real**2 + W_pre.imag**2, axis=-1))
            dd_out, self._dd_state, dcache = self.dd_net.step(rss, self._dd_state)
            # one column per bin, broadcast over the taps in update
            cov = CovariancePair(vv, (dd_out / self.fcfg.num_taps)[..., None])
        else:
            cov = self._classical(s_hat, filt)

        K = filt.gain(cov)
        filt.update(K, s_hat, cov)

        if self._tape is not None:
            # every stored array is a fresh object the forward pass never
            # mutates afterwards, so references suffice
            self._tape.append({
                "y": y_frame, "mcache": mcache,
                "hist": filt.X_hist,
                "denom": filt.denom, "inv_denom": filt.inv_denom,
                "W": W_pre, "P": P_pre, "s_hat": s_hat, "K": K,
                "vcache": vcache, "dcache": dcache, "rss": rss,
                "pos": filt.P > 0,
            })
        return s_hat

    # ------------------------------------------------------------- training

    def begin_window(self):
        if self._tape is not None:
            raise RuntimeError("a window is already recording")
        self._tape = []

    @property
    def window_frames(self):
        return 0 if self._tape is None else len(self._tape)

    def end_window(self, target_mags, want_grads=True):
        """Close the recorded window against target magnitudes.

        target_mags has one frame of per-bin magnitudes, shaped like the
        processor's spectra, per recorded frame.  Returns (mean absolute
        magnitude error, {net name: gradient dict}) with entries only for
        the networks actually attached; the tape is released either way.
        A multi-row processor gives one loss per row and a (B, ...) stack
        of gradients per parameter, each row its own window's.
        """
        if self._tape is None:
            raise RuntimeError("no window is recording")
        tape, self._tape = self._tape, None
        if not tape:
            raise ValueError("window is empty")
        targets = np.asarray(target_mags, dtype=np.float64)
        shape = (len(tape),) + self.filt.W.shape[:-1]
        if targets.shape != shape:
            raise ValueError(f"targets must have shape {shape}, got {targets.shape}")
        s_mags = np.abs(np.array([e["s_hat"] for e in tape]))
        diff = s_mags - targets
        # each row's (frames, bins) block laid out contiguously, as alone
        per_row = np.moveaxis(np.abs(diff), 0, -2).reshape(shape[1:-1] + (-1,))
        loss = np.mean(per_row, axis=-1)
        loss = float(loss) if self.rows is None else loss
        if not want_grads:
            return loss, {}
        return loss, self._backward(tape, s_mags, np.sign(diff) / per_row.shape[-1])

    def _backward(self, tape, s_mags, gmag):
        """Reverse the window.

        Complex adjoint convention: for z = a + ib the carried gradient is
        dL/da + i dL/db.  Then z = u*v gives gu += gz*conj(v); r = |z|^2
        gives gz += 2*gr*z; and a real factor p in z = p*w gives
        gp += Re(gz*conj(w)).
        """
        fcfg = self.fcfg
        A, A2, alpha = fcfg.A, fcfg.A**2, fcfg.alpha
        taps, beta = fcfg.num_taps, fcfg.beta

        rows = self.rows
        attached = [(name, net, key) for name, net, key in (
            ("mask", self.mask_net, "mcache"), ("vv", self.vv_net, "vcache"),
            ("dd", self.dd_net, "dcache")) if net is not None]
        gate_grads = {name: [] for name, _, _ in attached}  # per frame, last frame first
        if self.mask_net is not None:
            mask_sadj = self.mask_net.init_state(rows)
        if self.vv_net is not None:
            vv_sadj = self.vv_net.init_state(rows)
            dd_sadj = self.dd_net.init_state(rows)

        shape = self.filt.W.shape
        gW = np.zeros(shape, dtype=np.complex128)   # dL/dW(k+1)
        gP = np.zeros(shape)                         # dL/dP(k+1)
        gH = np.zeros(shape, dtype=np.complex128)   # dL/d reference history
        gvv_carry = np.zeros(shape[:-1])             # classical smoother state

        for k in reversed(range(len(tape))):
            e = tape[k]
            X = e["hist"]
            W, P, K, s_hat = e["W"], e["P"], e["K"], e["s_hat"]
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
            gH_frame = g_K_decay * conj_K

            # weight update W(k+1) = A (W + K s_hat)
            gW_new = A * gW
            gK += gW_new * np.conj(s_hat)[..., None]
            gS = gS + A * np.sum(gW * conj_K, axis=-1)

            # gain K = P conj(X) / (sum |X|^2 P + vv + eps), as taped
            # |X|^2 elementwise, as push_reference computed it; taping it
            # would repeat each power once per tap
            xpow, denom = X.real**2 + X.imag**2, e["denom"]
            PX = P * X  # conj(P conj(X))
            g_t1 = gK * e["inv_denom"][..., None]
            gdenom = -np.sum((gK * PX).real, axis=-1) / (denom * denom)
            gP_new += (g_t1 * X).real
            gP_new += gdenom[..., None] * xpow
            gH_frame += P * np.conj(g_t1)
            gH_frame += 2.0 * gdenom[..., None] * PX
            gvv = gdenom

            # covariance source
            if self.vv_net is not None:
                dmag, vv_sadj = self.vv_net.step_back(e["vcache"], gvv, vv_sadj,
                                                      gate_grads["vv"])
                gS = gS + dmag * unit
                g_ddout = np.sum(gdd, axis=-1) / taps
                drss, dd_sadj = self.dd_net.step_back(e["dcache"], g_ddout, dd_sadj,
                                                      gate_grads["dd"])
                rss = e["rss"]
                gW_new += (np.where(rss > 0, drss / np.maximum(rss, 1e-300), 0.0))[..., None] * W
            else:
                g_sm = gvv + gvv_carry  # vv(k) = b vv(k-1) + (1-b) |s_hat|^2
                gS = gS + (2.0 * (1.0 - beta)) * g_sm * s_hat
                gvv_carry = beta * g_sm
                gW_new += (2.0 * (1.0 - A2)) * gdd * W

            # prediction s_hat = Y - sum_l X W
            gW_new += -conj_X * gS[..., None]
            gH_frame += -np.conj(W) * gS[..., None]

            # history shift: slot 0 holds this frame's reference
            gH_tot = gH_frame + gH
            gref = gH_tot[..., 0]
            gH = np.zeros(shape, dtype=np.complex128)
            gH[..., :-1] = gH_tot[..., 1:]

            if self.mask_net is not None:
                gm = (gref * np.conj(e["y"])).real
                # the mask net's inputs are data features: no input gradient
                _, mask_sadj = self.mask_net.step_back(e["mcache"], gm, mask_sadj,
                                                       gate_grads["mask"], d_input=False)

            gW, gP = gW_new, gP_new
        return {name: net.window_grads([e[key] for e in tape], gate_grads[name])
                for name, net, key in attached}


def _take(tree, rows):
    """``tree`` with each array in it cut to ``rows`` of its leading axis."""
    if isinstance(tree, np.ndarray):
        return tree[rows]
    if isinstance(tree, (list, tuple)):
        return type(tree)(_take(item, rows) for item in tree)
    if isinstance(tree, dict):
        return {key: _take(item, rows) for key, item in tree.items()}
    if isinstance(tree, HiddenState):
        return HiddenState(_take(tree.h, rows), _take(tree.c, rows))
    return tree
