"""Recurrent nets: forward oracle, BPTT vs finite differences, weight files."""

import numpy as np
import pytest

from howlkit.nets import (
    FEATURE_SCALE,
    FEATURE_SHIFT,
    LstmNet,
    _sigmoid,
    finite_difference_grads,
    grad_check,
    load_params,
    make_cov_dd_net,
    make_cov_vv_net,
    make_mask_net,
    mask_apply,
    normalize_log_power,
    save_params,
)
from oracles import per_frame_weight_grads, scalar_lstm_forward


def zeroed(net):
    for k in net.params:
        net.params[k][:] = 0.0
    return net


def test_sigmoid_one_division_equals_two_branch_form():
    grid = np.array([0.0, 1e-300, 1.0, 30.0, 745.0, np.inf])
    x = np.concatenate([grid, -grid, [np.nan]])
    ex = np.exp(-np.abs(x))
    den = 1.0 + ex
    two_branch = np.where(x >= 0, 1.0 / den, ex / den)
    assert _sigmoid(x).tobytes() == two_branch.tobytes()


def test_zero_weights_sigmoid_gives_half():
    net = zeroed(LstmNet(3, (4,), 5, "sigmoid"))
    out, _, _ = net.step(np.ones(3), net.init_state())
    np.testing.assert_array_equal(out, np.full(5, 0.5))


def test_zero_weights_softplus_gives_log_two():
    net = zeroed(LstmNet(3, (4,), 5, "softplus"))
    out, _, _ = net.step(np.ones(3), net.init_state())
    np.testing.assert_allclose(out, np.full(5, np.log(2.0)), rtol=1e-15)


@pytest.mark.parametrize("activation", ["linear", "sigmoid", "softplus"])
def test_forward_matches_scalar_reimplementation(activation):
    net = LstmNet(3, (4, 3), 2, activation, seed=5)
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((5, 3))
    outs, _, _ = net.forward(xs)
    oracle = scalar_lstm_forward(net.params, net.hidden_sizes, 2, activation, xs)
    np.testing.assert_allclose(outs, np.array(oracle), rtol=1e-12, atol=1e-14)


def test_mask_apply_trivials():
    y = np.array([1 + 1j, 2j, -3.0 + 0j])
    np.testing.assert_array_equal(mask_apply(np.ones(3), y), y)
    np.testing.assert_array_equal(mask_apply(np.zeros(3), y), np.zeros(3, dtype=complex))
    theta = 0.7
    y2 = np.array([2.0 * np.exp(1j * theta)])
    r = mask_apply(np.array([0.5]), y2)
    np.testing.assert_allclose(np.abs(r), [1.0])
    np.testing.assert_allclose(np.angle(r), [theta])


def test_zero_output_gradients_give_zero_param_gradients():
    net = LstmNet(4, (5,), 3, "sigmoid", seed=1)
    xs = np.random.default_rng(2).standard_normal((6, 4))
    _, _, caches = net.forward(xs)
    grads, d_xs, d_state = net.backward(caches, np.zeros((6, 3)))
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))
    np.testing.assert_array_equal(d_xs, np.zeros_like(d_xs))


def test_single_unit_gradient_matches_hand_derivation():
    net = LstmNet(1, (1,), 1, "linear", seed=3)
    x = 0.37
    out, _, caches = net.forward(np.array([[x]]))
    grads, d_xs, _ = net.backward(caches, np.array([[1.0]]))

    wx, b = net.params["wx0"], net.params["b0"]
    u = net.params["w_out"][0, 0]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    zi, zf, zg, zo = (wx[k, 0] * x + b[k] for k in range(4))
    i, f, g, o = sig(zi), sig(zf), np.tanh(zg), sig(zo)
    c = i * g  # c_prev = 0
    h = o * np.tanh(c)
    assert np.isclose(out[0, 0], u * h + net.params["b_out"][0], rtol=1e-12)

    dh = u
    do = dh * np.tanh(c)
    dc = dh * o * (1 - np.tanh(c) ** 2)
    dzi = dc * g * i * (1 - i)
    dzg = dc * i * (1 - g * g)
    dzo = do * o * (1 - o)
    np.testing.assert_allclose(grads["w_out"][0, 0], h, rtol=1e-12)
    np.testing.assert_allclose(grads["b_out"][0], 1.0)
    np.testing.assert_allclose(grads["b0"], [dzi, 0.0, dzg, dzo], rtol=1e-12, atol=1e-18)
    np.testing.assert_allclose(grads["wx0"][:, 0], np.array([dzi, 0.0, dzg, dzo]) * x,
                               rtol=1e-12, atol=1e-18)
    np.testing.assert_allclose(d_xs[0, 0], dzi * wx[0, 0] + dzg * wx[2, 0] + dzo * wx[3, 0],
                               rtol=1e-12)


@pytest.mark.parametrize("activation", ["linear", "sigmoid", "softplus"])
def test_bptt_matches_finite_differences(activation):
    net = LstmNet(4, (5,), 3, activation, seed=7)
    report = grad_check(net, T=6, seed=8)
    assert max(report.values()) < 1e-4, report


def test_bptt_two_layer_hidden_16():
    net = LstmNet(6, (16, 16), 4, "sigmoid", seed=9)
    report = grad_check(net, T=8, seed=10)
    assert max(report.values()) < 1e-4, report


def test_corrupted_gradient_is_detected():
    net = LstmNet(3, (4,), 2, "linear", seed=11)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((5, 3))
    weights = rng.standard_normal((5, 2))
    _, _, caches = net.forward(xs)
    analytic, _, _ = net.backward(caches, weights)
    numeric = finite_difference_grads(net, xs, weights)
    analytic["wx0"][0, 0] += 1e-2
    worst = np.max(np.abs(analytic["wx0"] - numeric["wx0"])
                   / np.maximum(np.maximum(np.abs(analytic["wx0"]), np.abs(numeric["wx0"])), 1e-8))
    assert worst > 1e-4


def stepped_window(net, T, rows, seed):
    """A window stepped forward, then back, one frame at a time: returns
    (caches, gate gradients as step_back recorded them)."""
    rng = np.random.default_rng(seed)
    lead = () if rows is None else (rows,)
    xs = rng.standard_normal((T,) + lead + (net.input_size,))
    d_outs = rng.standard_normal((T,) + lead + (net.output_size,))
    state, caches = net.init_state(rows), []
    for x in xs:
        _, state, cache = net.step(x, state)
        caches.append(cache)
    d_state, gate_grads = net.init_state(rows), []
    for t in reversed(range(T)):
        _, d_state = net.step_back(caches[t], d_outs[t], d_state, gate_grads)
    return caches, gate_grads


def _row_cache(cache, row):
    layer_caches, h_last, v, out = cache
    return ([tuple(a[row] for a in lc) for lc in layer_caches], h_last[row], v[row], out[row])


@pytest.mark.parametrize("T", [1, 2, 32])
@pytest.mark.parametrize("hidden", [(6,), (6, 5)])
@pytest.mark.parametrize("rows", [None, 3])
def test_window_grads_equal_per_frame_outer_product_sums(rows, hidden, T):
    net = LstmNet(4, hidden, 3, "sigmoid", seed=len(hidden))
    caches, gate_grads = stepped_window(net, T, rows, seed=T)
    got = net.window_grads(caches, gate_grads)
    want = per_frame_weight_grads(net.hidden_sizes, caches, gate_grads)
    assert sorted(got) == sorted(want) == sorted(net.params)
    lead = () if rows is None else (rows,)
    for key, value in want.items():
        assert got[key].shape == lead + net.params[key].shape
        np.testing.assert_allclose(got[key], value, rtol=1e-12, err_msg=key)
    if rows is not None:
        # one matrix product per row: each row is bitwise its solo window
        for row in range(rows):
            solo = net.window_grads([_row_cache(c, row) for c in caches],
                                    [(dv[row], [dz[row] for dz in dzs]) for dv, dzs in gate_grads])
            for key, value in solo.items():
                assert got[key][row].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("hidden", [(6,), (6, 5)])
@pytest.mark.parametrize("rows", [None, 3])
def test_step_back_without_input_gradient_keeps_every_other_bit(rows, hidden):
    net = LstmNet(4, hidden, 3, "sigmoid", seed=7)
    caches, _ = stepped_window(net, 1, rows, seed=8)
    d_out = np.random.default_rng(9).standard_normal(caches[0][3].shape)
    runs = []
    for d_input in (True, False):
        gate_grads = []
        d_x, d_state = net.step_back(caches[0], d_out, net.init_state(rows), gate_grads,
                                     d_input=d_input)
        runs.append((d_x, d_state, gate_grads[0]))
    (d_x, full_state, (full_dv, full_dzs)), (none, state, (dv, dzs)) = runs
    assert d_x.shape == caches[0][0][0][0].shape and none is None
    assert dv.tobytes() == full_dv.tobytes()
    for l in range(len(hidden)):
        assert dzs[l].tobytes() == full_dzs[l].tobytes()
        assert state.h[l].tobytes() == full_state.h[l].tobytes()
        assert state.c[l].tobytes() == full_state.c[l].tobytes()


def test_window_grads_need_one_step_back_per_cache():
    net = LstmNet(4, (6,), 3, "sigmoid", seed=1)
    caches, gate_grads = stepped_window(net, 3, None, seed=2)
    with pytest.raises(ValueError, match="one recorded step back per cache"):
        net.window_grads(caches, gate_grads[:2])


def test_streaming_steps_equal_batch_forward():
    net = LstmNet(3, (4, 4), 2, "sigmoid", seed=13)
    xs = np.random.default_rng(14).standard_normal((7, 3))
    batch, final_state, _ = net.forward(xs)
    state = net.init_state()
    for t in range(7):
        out, state, _ = net.step(xs[t], state)
        np.testing.assert_array_equal(out, batch[t])
    for l in range(2):
        np.testing.assert_array_equal(state.h[l], final_state.h[l])
        np.testing.assert_array_equal(state.c[l], final_state.c[l])


def test_forward_backward_deterministic():
    net = LstmNet(4, (6,), 3, "softplus", seed=15)
    xs = np.random.default_rng(16).standard_normal((6, 4))
    w = np.random.default_rng(17).standard_normal((6, 3))
    runs = []
    for _ in range(2):
        outs, _, caches = net.forward(xs)
        grads, _, _ = net.backward(caches, w)
        runs.append((outs, grads))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    for k in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])


def test_mask_output_range_and_cov_nonnegativity():
    mask = make_mask_net(8, hidden=(8, 8), seed=18)
    vv = make_cov_vv_net(8, seed=19)
    dd = make_cov_dd_net(8, seed=20)
    rng = np.random.default_rng(21)
    states = [mask.init_state(), vv.init_state(), dd.init_state()]
    for _ in range(10_000):
        m, states[0], _ = mask.step(10.0 * rng.standard_normal(16), states[0])
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        v, states[1], _ = vv.step(10.0 * rng.standard_normal(8), states[1])
        assert np.all(v >= 0.0)
        d, states[2], _ = dd.step(10.0 * rng.standard_normal(8), states[2])
        assert np.all(d >= 0.0)


def test_forget_gate_bias_initialised_to_one():
    net = LstmNet(3, (4,), 2, seed=0)
    H = 4
    np.testing.assert_array_equal(net.params["b0"][H : 2 * H], np.ones(H))
    np.testing.assert_array_equal(net.params["b0"][:H], np.zeros(H))


def test_normalize_log_power_constants():
    lp = np.array([-FEATURE_SHIFT, 0.0])
    np.testing.assert_allclose(normalize_log_power(lp), [0.0, FEATURE_SHIFT * FEATURE_SCALE])


def test_save_load_roundtrip_bit_exact(tmp_path):
    net = LstmNet(5, (7, 3), 4, "softplus", seed=22)
    path = str(tmp_path / "net.weights")
    save_params(net, path)
    back = load_params(path)
    assert back.input_size == 5
    assert back.hidden_sizes == (7, 3)
    assert back.output_size == 4
    assert back.output_activation == "softplus"
    for k, v in net.params.items():
        np.testing.assert_array_equal(back.params[k], v)


def test_load_rejects_bad_files(tmp_path):
    net = LstmNet(3, (4,), 2, "sigmoid", seed=23)
    path = str(tmp_path / "net.weights")
    save_params(net, path)
    blob = open(path, "rb").read()

    trunc = tmp_path / "trunc.weights"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_params(str(trunc))

    extra = tmp_path / "extra.weights"
    extra.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_params(str(extra))

    bad = tmp_path / "bad.weights"
    bad.write_bytes(b"XXXXXX" + blob[6:])
    with pytest.raises(ValueError, match="magic"):
        load_params(str(bad))


def test_constructor_validation():
    with pytest.raises(ValueError, match="activation"):
        LstmNet(3, (4,), 2, "relu")
    with pytest.raises(ValueError, match="sizes"):
        LstmNet(0, (4,), 2)
    with pytest.raises(ValueError, match="sizes"):
        LstmNet(3, (), 2)
    with pytest.raises(ValueError, match="shape"):
        LstmNet(3, (4,), 2).step(np.zeros(5), LstmNet(3, (4,), 2).init_state())
