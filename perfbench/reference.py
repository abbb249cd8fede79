"""Plain-numpy references the benchmark checks howlkit's outputs against.

Nothing here calls howlkit.  The suppressor reference follows the method as
the package documents it (sqrt-Hann framing at 50% overlap, the per-bin
Kalman recursion of the ``fdkf`` module docstring, overlap-add synthesis and
the LSTM equations of ``nets``), written out again in a different
arrangement, so that agreement within a tolerance says the program computes
the method rather than that it repeats itself.
"""

import numpy as np


def fft_convolve(x, h, n=None):
    """Linear convolution of x and h by FFT, truncated to n samples."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    n = len(x) if n is None else n
    size = 1 << int(np.ceil(np.log2(len(x) + len(h) - 1)))
    full = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)
    return full[:n]


def delayed(x, d):
    """x delayed by d samples, zeros before the start, same length."""
    out = np.zeros_like(x)
    out[d:] = x[: len(x) - d]
    return out


def sqrt_hann(n):
    k = np.arange(n)
    return np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * k / n)))


def sdr_db(s, s_hat, cap=60.0, floor=-99.0):
    num = float(np.dot(s, s))
    err = s - s_hat
    den = float(np.dot(err, err))
    if num == 0.0:
        return floor
    if den == 0.0:
        return cap
    return min(10.0 * np.log10(num / den), cap)


def lsd_db(s, s_hat, frame_len=128, hop=64):
    """Mean over frames of the RMS over bins of the 20 log10(|S| + 1e-8) gap."""
    win = sqrt_hann(frame_len)
    count = (len(s) - frame_len) // hop + 1
    gaps = []
    for k in range(count):
        a = np.abs(np.fft.rfft(s[k * hop: k * hop + frame_len] * win))
        b = np.abs(np.fft.rfft(s_hat[k * hop: k * hop + frame_len] * win))
        d = 20.0 * (np.log10(a + 1e-8) - np.log10(b + 1e-8))
        gaps.append(np.sqrt(np.mean(d * d)))
    return float(np.mean(gaps))


def _sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def _softplus(v):
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


class RefLstm:
    """Stacked LSTM (gates i, f, g, o) with an activated affine readout."""

    def __init__(self, params, hidden_sizes, activation):
        self.layers = [(params[f"wx{l}"], params[f"wh{l}"], params[f"b{l}"])
                       for l in range(len(hidden_sizes))]
        self.w_out, self.b_out = params["w_out"], params["b_out"]
        self.act = {"sigmoid": _sigmoid, "softplus": _softplus}[activation]
        self.h = [np.zeros(H) for H in hidden_sizes]
        self.c = [np.zeros(H) for H in hidden_sizes]

    def __call__(self, x):
        for l, (wx, wh, b) in enumerate(self.layers):
            gates = np.dot(wx, x) + np.dot(wh, self.h[l]) + b
            i, f, g, o = np.split(gates, 4)
            self.c[l] = _sigmoid(f) * self.c[l] + _sigmoid(i) * np.tanh(g)
            self.h[l] = _sigmoid(o) * np.tanh(self.c[l])
            x = self.h[l]
        return self.act(np.dot(self.w_out, x) + self.b_out)


def _log_feature(frame):
    return 0.25 * (np.log(np.maximum(frame.real ** 2 + frame.imag ** 2, 1e-12)) + 5.0)


def replay_suppressor(y, x_del, hops, fcfg, nets=None, frame_len=128, hop=64):
    """Open-loop reference of the suppressor over the first ``hops`` hops.

    ``y`` is the microphone stream and ``x_del`` the loudspeaker stream as
    the suppressor's own mirror sees it (delayed by the loop delay).
    ``fcfg`` supplies the filter constants (A, alpha, beta, p_init, eps,
    num_taps).  With ``nets`` ({"mask", "vv", "dd"} of LstmNet) the learned
    reference mask and covariances replace the closed-form ones.  Returns
    the first hops * hop output samples.
    """
    win = sqrt_hann(frame_len)
    cola = win[:hop] ** 2 + win[hop:] ** 2
    bins, taps = frame_len // 2 + 1, fcfg.num_taps
    A, alpha = fcfg.A, fcfg.alpha
    W = np.zeros((bins, taps), dtype=complex)
    P = np.full((bins, taps), fcfg.p_init)
    H = np.zeros((bins, taps), dtype=complex)
    vv_smooth = np.zeros(bins)
    x_prev = np.zeros(bins, dtype=complex)
    ybuf = np.zeros(frame_len)
    xbuf = np.zeros(frame_len)
    ola = np.zeros(frame_len)
    if nets is not None:
        mask, vvn, ddn = (RefLstm(nets[k].params, nets[k].hidden_sizes, nets[k].output_activation)
                          for k in ("mask", "vv", "dd"))
    out = np.zeros(hops * hop)
    for t in range(hops):
        ybuf = np.concatenate([ybuf[hop:], y[t * hop:(t + 1) * hop]])
        xbuf = np.concatenate([xbuf[hop:], x_del[t * hop:(t + 1) * hop]])
        Y = np.fft.rfft(ybuf * win)
        X = np.fft.rfft(xbuf * win)
        ref = X if nets is None else mask(np.concatenate([_log_feature(Y), _log_feature(x_prev)])) * Y
        H = np.concatenate([ref[:, None], H[:, :-1]], axis=1)
        S = Y - np.einsum("bl,bl->b", H, W)
        if nets is None:
            vv_smooth = fcfg.beta * vv_smooth + (1.0 - fcfg.beta) * np.abs(S) ** 2
            vv = vv_smooth
            dd = (1.0 - A * A) * np.abs(W) ** 2
        else:
            vv = vvn(np.abs(S))
            dd = np.outer(ddn(np.linalg.norm(W, axis=1)) / taps, np.ones(taps))
        K = P * H.conj() / (np.einsum("bl,bl->b", np.abs(H) ** 2, P) + vv + fcfg.eps)[:, None]
        W = A * (W + K * S[:, None])
        P = np.maximum(A * A * (1.0 - alpha * (K * H).real) * P + dd, 0.0)
        x_prev = X
        ola = ola + np.fft.irfft(S, frame_len) * win
        out[t * hop:(t + 1) * hop] = ola[:hop] / cola
        ola = np.concatenate([ola[hop:], np.zeros(hop)])
    return out
