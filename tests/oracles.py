"""Independent reference implementations used as test oracles.

These are written in plain textbook form (explicit predict/update steps,
dense covariance matrices, scalar arithmetic where possible) so they share
no code or structure with the package implementations they check.
"""

import math
from collections import deque

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


def per_frame_weight_grads(hidden_sizes, caches, gate_grads):
    """An LSTM window's parameter gradients, accumulated one frame at a time.

    ``caches`` are the window's ``LstmNet.step`` caches in time order and
    ``gate_grads`` the (readout, per-layer gate) gradients ``step_back``
    recorded, last frame first.  Walking the window backwards, each frame
    adds the outer product of its gate gradient with the layer input, and
    with the previous hidden state, into the weight gradients, and its gate
    gradient into the bias; a stacked window does this row by row.
    """

    def outer(a, b):
        if a.ndim == 1:
            return np.outer(a, b)
        return np.array([np.outer(a_row, b_row) for a_row, b_row in zip(a, b)])

    grads = {}

    def add(key, value):
        grads[key] = grads[key] + value if key in grads else value

    for cache, (dv, dzs) in zip(reversed(caches), gate_grads):
        layer_caches, h_last = cache[0], cache[1]
        add("w_out", outer(dv, h_last))
        add("b_out", dv)
        for l in range(len(hidden_sizes)):
            inp, h_prev = layer_caches[l][0], layer_caches[l][1]
            add(f"wx{l}", outer(dzs[l], inp))
            add(f"wh{l}", outer(dzs[l], h_prev))
            add(f"b{l}", dzs[l])
    return grads


def lfilter_resonators(x, sections):
    """``x`` through one ``lfilter([b0], [1.0, a1, a2], ·)`` per
    ``(b0, a1, a2)`` section, in turn."""
    for b0, a1, a2 in sections:
        x = lfilter([b0], [1.0, a1, a2], x)
    return x


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


def per_hop_closed_loop(target, taps, gain, delay, sat, ahs, frame_size, amp_threshold=1.0,
                        run_length=100):
    """One closed-loop scene run hop by hop, in plain form.

    A FIFO of ``delay`` loudspeaker samples, zeros at the start, feeds the
    path: each hop takes its oldest ``frame_size`` samples out, filters them
    with ``lfilter`` from the state the last hop left, and adds the target.
    The suppressor ``ahs`` maps that microphone frame to its output, which
    is scaled by ``gain``, clipped at ``sat`` and put back into the FIFO.  A
    sample whose output magnitude exceeds ``amp_threshold`` extends the loud
    run; the first sample at which the run exceeds ``run_length`` is the
    howl.  Returns (y, d, s_hat, x, howl sample or None), truncated to whole
    hops.
    """
    taps = np.asarray(taps, dtype=np.float64)
    n = len(target) - len(target) % frame_size
    fifo = deque([0.0] * delay)
    zi = np.zeros(max(len(taps), 2) - 1)
    y, d, s_hat, x = (np.zeros(n) for _ in range(4))
    run, howl = 0, None
    for t in range(0, n, frame_size):
        hop = slice(t, t + frame_size)
        heard = np.array([fifo.popleft() for _ in range(frame_size)])
        d[hop], zi = lfilter(taps, [1.0, 0.0], heard, zi=zi)
        y[hop] = target[hop] + d[hop]
        s_hat[hop] = ahs(y[hop].copy())
        x[hop] = np.clip(gain * s_hat[hop], -sat, sat)
        fifo.extend(x[hop])
        for i in range(t, t + frame_size):
            run = run + 1 if abs(s_hat[i]) > amp_threshold else 0
            if howl is None and run > run_length:
                howl = i
    return y, d, s_hat, x, howl


def fifo_loudspeaker(x, delay, frame_size):
    """The loudspeaker stream a suppressor in the loop hears, in plain form.

    A FIFO of ``delay`` zeros: each hop pops its oldest ``frame_size``
    samples, which the suppressor hears, then takes that hop's loudspeaker
    samples from ``x``.  Returns the popped stream, truncated to whole hops.
    """
    n = len(x) - len(x) % frame_size
    fifo = deque([0.0] * delay)
    heard = np.zeros(n)
    for t in range(0, n, frame_size):
        heard[t:t + frame_size] = [fifo.popleft() for _ in range(frame_size)]
        fifo.extend(x[t:t + frame_size])
    return heard


def per_hop_open_loop(samples, ahs, hop):
    """A recorded microphone signal suppressed hop by hop, in plain form.

    Zero-pads the samples to whole hops, calls the suppressor once per hop
    and truncates the output to the input length.
    """
    n = len(samples)
    padded = np.zeros(-(-n // hop) * hop)
    padded[:n] = samples
    chunks = [np.asarray(ahs(padded[k:k + hop]), dtype=np.float64)
              for k in range(0, len(padded), hop)]
    return np.concatenate(chunks)[:n]


def running_mean_grads(grad_list):
    """Per parameter, the gradients of ``grad_list`` added one after another,
    in order, then scaled by one over their count."""
    total = {}
    for grads in grad_list:
        for name, tree in grads.items():
            slot = total.setdefault(name, {})
            for key, g in tree.items():
                slot[key] = slot[key] + g if key in slot else g.copy()
    scale = 1.0 / len(grad_list)
    return {name: {key: g * scale for key, g in tree.items()} for name, tree in total.items()}
