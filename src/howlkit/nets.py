"""Small recurrent networks built on numpy only.

Stacked gated-memory (LSTM) layers with a projected, activated output.
Everything needed for streaming use and truncated backprop-through-time is
exposed at single-step granularity: step() returns a cache, step_back()
consumes one, so a caller can interleave network steps with other
differentiable computation and still reverse the whole window.

Three specializations cover the suppression stack:
  * mask net    — input [logpow(Y_k), logpow(X_{k-1})], sigmoid output in [0,1]
  * vv cov net  — input |S_hat|, softplus output (observation covariance)
  * dd cov net  — input per-bin tap magnitude of W, softplus output
                  (process covariance, shared across taps)
"""

import struct
from dataclasses import dataclass

import numpy as np

# fixed affine normalization for log-power features, so streaming inference
# needs no dataset statistics
FEATURE_SHIFT = 5.0
FEATURE_SCALE = 0.25

_ACTIVATIONS = {"linear": 0, "sigmoid": 1, "softplus": 2}
_MAGIC = b"HKNET\x01"


def normalize_log_power(log_pow: np.ndarray) -> np.ndarray:
    """Map natural-log power onto a roughly unit range for network input."""
    return FEATURE_SCALE * (np.asarray(log_pow, dtype=np.float64) + FEATURE_SHIFT)


def _sigmoid(x):
    # exp(-|x|) never overflows; each branch is 1/(1+exp(-x)) for x >= 0 and
    # exp(x)/(1+exp(x)) below, element for element
    ex = np.exp(-np.abs(x))
    den = 1.0 + ex
    return np.where(x >= 0, 1.0 / den, ex / den)


def _softplus(x):
    return np.logaddexp(0.0, x)


@dataclass
class HiddenState:
    """Per-layer hidden and cell vectors; one instance per stream."""

    h: list
    c: list


class LstmNet:
    """Stacked LSTM with an affine+activation readout.

    Parameters live in ``self.params`` keyed wx{l}, wh{l}, b{l} per layer plus
    w_out, b_out.  Gate layout within the stacked rows is input, forget, cell
    candidate, output; the forget-gate bias starts at +1 so early training
    does not dump cell memory.
    """

    def __init__(self, input_size, hidden_sizes, output_size, output_activation="linear",
                 seed=0):
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")
        hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if input_size < 1 or output_size < 1 or not hidden_sizes or min(hidden_sizes) < 1:
            raise ValueError("all layer sizes must be at least 1")
        self.input_size = int(input_size)
        self.hidden_sizes = hidden_sizes
        self.output_size = int(output_size)
        self.output_activation = output_activation

        rng = np.random.default_rng(seed)
        self.params = {}
        prev = self.input_size
        for l, H in enumerate(hidden_sizes):
            self.params[f"wx{l}"] = rng.uniform(-1, 1, (4 * H, prev)) / np.sqrt(prev)
            self.params[f"wh{l}"] = rng.uniform(-1, 1, (4 * H, H)) / np.sqrt(H)
            b = np.zeros(4 * H)
            b[H : 2 * H] = 1.0
            self.params[f"b{l}"] = b
            prev = H
        self.params["w_out"] = rng.uniform(-1, 1, (self.output_size, prev)) / np.sqrt(prev)
        self.params["b_out"] = np.zeros(self.output_size)

    # ---------------------------------------------------------------- forward

    def init_state(self, rows=None) -> HiddenState:
        """Zero state for one stream, or (rows, H) state for ``rows`` streams."""
        lead = () if rows is None else (rows,)
        return HiddenState(
            [np.zeros(lead + (H,)) for H in self.hidden_sizes],
            [np.zeros(lead + (H,)) for H in self.hidden_sizes],
        )

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def step(self, x, state: HiddenState):
        """One frame forward.  Returns (output, new_state, cache).

        ``x`` is one (input_size,) frame, or a (rows, input_size) stack of
        frames for a state from ``init_state(rows)``; each row then agrees
        with its solo step to rounding (a matrix product may sum in another
        order than a matrix-vector one).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2 or x.shape[-1:] != (self.input_size,):
            raise ValueError(f"input must have shape ({self.input_size},) or "
                             f"(rows, {self.input_size}), got {x.shape}")
        inp = x
        new_h, new_c, layer_caches = [], [], []
        for l, H in enumerate(self.hidden_sizes):
            # (W @ v.T).T is W @ v for one frame and a row per frame otherwise
            z = ((self.params[f"wx{l}"] @ inp.T).T + (self.params[f"wh{l}"] @ state.h[l].T).T
                 + self.params[f"b{l}"])
            gates = _sigmoid(z)  # one pass for i, f and o; its cell slice is unused
            i = gates[..., :H]
            f = gates[..., H : 2 * H]
            g = np.tanh(z[..., 2 * H : 3 * H])
            o = gates[..., 3 * H :]
            c = f * state.c[l] + i * g
            tc = np.tanh(c)
            h = o * tc
            layer_caches.append((inp, state.h[l], state.c[l], i, f, g, o, tc))
            new_h.append(h)
            new_c.append(c)
            inp = h
        v = (self.params["w_out"] @ inp.T).T + self.params["b_out"]
        if self.output_activation == "sigmoid":
            out = _sigmoid(v)
        elif self.output_activation == "softplus":
            out = _softplus(v)
        else:
            out = v.copy()
        cache = (layer_caches, inp, v, out)
        return out, HiddenState(new_h, new_c), cache

    def forward(self, xs, state=None):
        """Run a (T, input_size) sequence.  Returns (outputs, state, caches)."""
        xs = np.asarray(xs, dtype=np.float64)
        state = state if state is not None else self.init_state()
        outs = np.zeros((len(xs), self.output_size))
        caches = []
        for t in range(len(xs)):
            outs[t], state, cache = self.step(xs[t], state)
            caches.append(cache)
        return outs, state, caches

    # --------------------------------------------------------------- backward

    def step_back(self, cache, d_out, d_state_next: HiddenState, grads: dict):
        """Backprop one frame.

        d_out is dL/d(output); d_state_next carries dL/dh and dL/dc flowing
        back from the following time step.  Parameter gradients accumulate
        into ``grads``.  Returns (d_x, d_state_prev).
        """
        layer_caches, h_last, v, out = cache
        d_out = np.asarray(d_out, dtype=np.float64)
        if self.output_activation == "sigmoid":
            dv = d_out * out * (1.0 - out)
        elif self.output_activation == "softplus":
            dv = d_out * _sigmoid(v)
        else:
            dv = d_out
        # einsum's outer product is faster than broadcasting at these sizes
        grads["w_out"] += np.einsum("i,j->ij", dv, h_last)
        grads["b_out"] += dv
        dh = self.params["w_out"].T @ dv

        d_prev_h = [None] * len(self.hidden_sizes)
        d_prev_c = [None] * len(self.hidden_sizes)
        for l in reversed(range(len(self.hidden_sizes))):
            H = self.hidden_sizes[l]
            inp, h_prev, c_prev, i, f, g, o, tc = layer_caches[l]
            dh_total = dh + d_state_next.h[l]
            dc = d_state_next.c[l] + dh_total * o * (1.0 - tc * tc)
            do = dh_total * tc
            dz = np.concatenate([
                (dc * g) * i * (1.0 - i),
                (dc * c_prev) * f * (1.0 - f),
                (dc * i) * (1.0 - g * g),
                do * o * (1.0 - o),
            ])
            grads[f"wx{l}"] += np.einsum("i,j->ij", dz, inp)
            grads[f"wh{l}"] += np.einsum("i,j->ij", dz, h_prev)
            grads[f"b{l}"] += dz
            d_prev_h[l] = self.params[f"wh{l}"].T @ dz
            d_prev_c[l] = dc * f
            dh = self.params[f"wx{l}"].T @ dz  # input of layer l is h of layer l-1
        return dh, HiddenState(d_prev_h, d_prev_c)

    def backward(self, caches, d_outs, d_state_final=None):
        """BPTT over a window recorded by forward().

        Returns (parameter gradient dict, d_inputs of shape (T, input_size),
        gradient w.r.t. the initial HiddenState).
        """
        if len(caches) != len(d_outs):
            raise ValueError("caches and output gradients must have equal length")
        grads = self.zero_grads()
        d_state = d_state_final if d_state_final is not None else HiddenState(
            [np.zeros(H) for H in self.hidden_sizes],
            [np.zeros(H) for H in self.hidden_sizes],
        )
        d_xs = np.zeros((len(caches), self.input_size))
        for t in reversed(range(len(caches))):
            d_xs[t], d_state = self.step_back(caches[t], d_outs[t], d_state, grads)
        return grads, d_xs, d_state


def mask_apply(mask: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Scale each bin's magnitude by mask, keeping the phase of y."""
    return np.asarray(mask, dtype=np.float64) * np.asarray(y)


# ---------------------------------------------------------------- grad check

def finite_difference_grads(net: LstmNet, xs, loss_weights, step=1e-5):
    """Numeric gradients of sum_t loss_weights[t] . output[t] by central
    differences over every parameter element."""
    xs = np.asarray(xs, dtype=np.float64)
    loss_weights = np.asarray(loss_weights, dtype=np.float64)

    def loss():
        outs, _, _ = net.forward(xs)
        return float(np.sum(loss_weights * outs))

    grads = {}
    for name, tensor in net.params.items():
        g = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            up = loss()
            flat[j] = keep - step
            down = loss()
            flat[j] = keep
            gflat[j] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def grad_check(net: LstmNet, T=6, seed=0, step=1e-5):
    """Analytic BPTT vs central finite differences on a random sequence.

    Returns {param name: worst relative error}; the loss is a fixed random
    linear functional of the outputs so its gradient is exact.
    """
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((T, net.input_size))
    weights = rng.standard_normal((T, net.output_size))
    _, _, caches = net.forward(xs)
    analytic, _, _ = net.backward(caches, weights)
    numeric = finite_difference_grads(net, xs, weights, step)
    report = {}
    for name in net.params:
        a, n = analytic[name], numeric[name]
        # Central differences carry ~|loss|*eps/step of roundoff, so elements
        # whose true gradient sits below 1e-5 are compared absolutely; a wrong
        # formula still shows up as O(1) relative error on the rest.
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-5)
        report[name] = float(np.max(np.abs(a - n) / denom))
    return report


# ------------------------------------------------------------ serialization

def save_params(net: LstmNet, path: str):
    """Write weights: magic, layer/activation header, then '<f8' arrays."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", net.input_size, len(net.hidden_sizes), net.output_size))
        for H in net.hidden_sizes:
            f.write(struct.pack("<I", H))
        f.write(struct.pack("<B", _ACTIVATIONS[net.output_activation]))
        for name in _param_order(net):
            f.write(np.ascontiguousarray(net.params[name], dtype="<f8").tobytes())


def load_params(path: str) -> LstmNet:
    """Rebuild a network from save_params output; validates layout and size."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a network weight file (bad magic)")
    off = len(_MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise ValueError("truncated weight file")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    input_size, n_layers, output_size = take("<III")
    if not (1 <= input_size <= 1_000_000 and 1 <= n_layers <= 64 and 1 <= output_size <= 1_000_000):
        raise ValueError("weight file header out of range")
    hidden = [take("<I")[0] for _ in range(n_layers)]
    (act_id,) = take("<B")
    act_names = {v: k for k, v in _ACTIVATIONS.items()}
    if act_id not in act_names:
        raise ValueError(f"unknown activation id {act_id}")

    net = LstmNet(input_size, hidden, output_size, act_names[act_id], seed=0)
    for name in _param_order(net):
        shape = net.params[name].shape
        count = int(np.prod(shape))
        size = count * 8
        if off + size > len(blob):
            raise ValueError("truncated weight file")
        net.params[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off += size
    if off != len(blob):
        raise ValueError("trailing data in weight file")
    return net


def _param_order(net: LstmNet):
    names = []
    for l in range(len(net.hidden_sizes)):
        names.extend([f"wx{l}", f"wh{l}", f"b{l}"])
    names.extend(["w_out", "b_out"])
    return names


# ------------------------------------------------------- net specializations

def make_mask_net(num_bins: int, hidden=(32, 32), seed=0) -> LstmNet:
    """Ratio-mask net: input is normalized log power of the microphone frame
    and the previous reference frame, output one sigmoid mask per bin."""
    return LstmNet(2 * num_bins, hidden, num_bins, "sigmoid", seed=seed)


def make_cov_vv_net(num_bins: int, seed=1) -> LstmNet:
    """Observation-covariance net: |S_hat| in, nonnegative psi_vv out."""
    return LstmNet(num_bins, (num_bins,), num_bins, "softplus", seed=seed)


def make_cov_dd_net(num_bins: int, seed=2) -> LstmNet:
    """Process-covariance net: per-bin tap magnitude of W in, nonnegative
    per-bin process noise out (spread evenly over taps by the caller)."""
    return LstmNet(num_bins, (num_bins,), num_bins, "softplus", seed=seed)
