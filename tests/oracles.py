"""Independent reference implementations used as test oracles.

These are written in plain textbook form (explicit predict/update steps,
dense covariance matrices, scalar arithmetic where possible) so they share
no code or structure with the package implementations they check.
"""

import math

import numpy as np
from scipy.signal import lfilter


def scalar_lstm_forward(params, hidden_sizes, output_size, activation, xs):
    """Pure-Python per-element LSTM forward pass (lists and math only).

    params maps wx{l}/wh{l}/b{l}/w_out/b_out to indexable 2-D/1-D arrays with
    gates stacked [input, forget, candidate, output].
    """

    def sig(v):
        if v >= 0:
            return 1.0 / (1.0 + math.exp(-v))
        e = math.exp(v)
        return e / (1.0 + e)

    h = [[0.0] * H for H in hidden_sizes]
    c = [[0.0] * H for H in hidden_sizes]
    outs = []
    for x in xs:
        inp = [float(v) for v in x]
        for l, H in enumerate(hidden_sizes):
            wx, wh, b = params[f"wx{l}"], params[f"wh{l}"], params[f"b{l}"]
            z = []
            for r in range(4 * H):
                acc = float(b[r])
                for j in range(len(inp)):
                    acc += float(wx[r][j]) * inp[j]
                for j in range(H):
                    acc += float(wh[r][j]) * h[l][j]
                z.append(acc)
            i = [sig(z[k]) for k in range(H)]
            f = [sig(z[H + k]) for k in range(H)]
            g = [math.tanh(z[2 * H + k]) for k in range(H)]
            o = [sig(z[3 * H + k]) for k in range(H)]
            c[l] = [f[k] * c[l][k] + i[k] * g[k] for k in range(H)]
            h[l] = [o[k] * math.tanh(c[l][k]) for k in range(H)]
            inp = h[l]
        w_out, b_out = params["w_out"], params["b_out"]
        v = []
        for r in range(output_size):
            acc = float(b_out[r])
            for j in range(len(inp)):
                acc += float(w_out[r][j]) * inp[j]
            v.append(acc)
        if activation == "sigmoid":
            outs.append([sig(t) for t in v])
        elif activation == "softplus":
            outs.append([math.log1p(math.exp(t)) if t < 30 else t for t in v])
        else:
            outs.append(v)
    return outs


def scalar_kalman_run(Y, X, psi_vv, psi_dd, A, alpha, p_init):
    """Scalar complex Kalman filter for a single bin with one tap.

    Observation model: Y[k] = X[k] * w + v, state transition w <- A * w with
    process noise psi_dd, observation noise psi_vv.  Works on the a-priori
    state: the returned w_traj[k] is the prediction for frame k+1.
    """
    w = 0.0 + 0.0j
    p = p_init
    w_traj = []
    for k in range(len(Y)):
        x = complex(X[k])
        e = complex(Y[k]) - x * w
        denom = (x.real**2 + x.imag**2) * p + psi_vv
        kgain = p * x.conjugate() / denom
        w_post = w + kgain * e
        p_post = (1.0 - alpha * (kgain * x).real) * p
        w = A * w_post
        p = A * A * p_post + psi_dd
        w_traj.append(w)
    return np.array(w_traj)


def dense_kalman_run(Y, X, L, psi_vv, psi_dd, A, alpha, p_init):
    """Dense-covariance Kalman filter for a single bin with L taps.

    Y: (T,) complex observations.  X: (T,) complex reference frames; the
    regressor for frame k is hist = [X[k], X[k-1], ..., X[k-L+1]].
    psi_dd: scalar or (L,) per-tap process noise.  Covariance is a full
    complex L x L matrix, diagonally initialized at p_init.

    Returns the (T, L) trajectory of the a-priori tap vector after each
    frame's update.
    """
    w = np.zeros(L, dtype=np.complex128)
    P = np.eye(L, dtype=np.complex128) * p_init
    hist = np.zeros(L, dtype=np.complex128)
    Q = np.diag(np.broadcast_to(np.asarray(psi_dd, dtype=np.float64), (L,)))
    w_traj = np.zeros((len(Y), L), dtype=np.complex128)
    for k in range(len(Y)):
        hist = np.roll(hist, 1)
        hist[0] = X[k]
        e = Y[k] - hist @ w
        Pc = P @ hist.conj()
        denom = (hist @ Pc).real + psi_vv
        K = Pc / denom
        w_post = w + K * e
        P_post = P - alpha * np.outer(K, hist) @ P
        w = A * w_post
        P = A * A * P_post + Q
        w_traj[k] = w
    return w_traj


def lfilter_stream(taps, chunks):
    """FIR filtering chunk by chunk with scipy's transposed direct form.

    Each chunk runs through ``lfilter(taps, [1.0, 0.0], chunk, zi=zi)`` with
    the state carried over; ``a = [1, 0]`` keeps lfilter on its stateful C
    loop even for one tap.  Returns the concatenated output.
    """
    taps = np.asarray(taps, dtype=np.float64)
    zi = np.zeros(max(len(taps), 2) - 1)
    outs = [np.zeros(0)]
    for chunk in chunks:
        if len(chunk):
            y, zi = lfilter(taps, [1.0, 0.0], np.asarray(chunk, dtype=np.float64), zi=zi)
            outs.append(y)
    return np.concatenate(outs)
