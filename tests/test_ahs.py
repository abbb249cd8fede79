"""Suppressor wiring tests: pass-through exactness, the loudspeaker mirror,
ablation plumbing, and finite-difference checks of whole-window gradients."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from howlkit.ahs import KalmanAhs, MASK_SCOPES
from howlkit.fdkf import FdkfConfig
from howlkit.loop import LoopScene, run_scene
from howlkit.nets import LstmNet, make_cov_dd_net, make_cov_vv_net, make_mask_net
from howlkit.rooms import Rir, RoomSpec, generate_rir
from howlkit.signals import StftConfig, TimeSignal

FS = 16000

ROOM = RoomSpec(
    dimensions=(5.0, 4.0, 3.0),
    source_pos=(1.0, 1.0, 1.5),
    mic_pos=(3.5, 2.5, 1.5),
    rt60=0.2,
    max_rir_len=1024,
)


def speech_like(seconds, seed, peak=0.5):
    rng = np.random.default_rng(seed)
    x = lfilter([1.0], [1.0, -1.6, 0.72], rng.standard_normal(int(seconds * FS)))
    return TimeSignal(peak * x / np.max(np.abs(x)), FS)


def scaled_room_rir(coupling=3.0):
    rir = generate_rir(ROOM)
    return Rir(rir.taps * (coupling / np.sum(rir.taps)), FS)


# --------------------------------------------------------------- tiny setup
# 16/8 transform (9 bins) and 2-tap filter keep finite differencing cheap.

TINY = StftConfig(frame_len=16, hop=8)
TINY_F = FdkfConfig(num_bins=9, num_taps=2)


def tiny_nets(mask=True, cov=True):
    nets = {}
    if mask:
        nets["mask_net"] = LstmNet(18, (6,), 9, "sigmoid", seed=11)
    if cov:
        nets["vv_net"] = LstmNet(9, (5,), 9, "softplus", seed=12)
        nets["dd_net"] = LstmNet(9, (5,), 9, "softplus", seed=13)
    return nets


def tiny_ahs(mask=True, cov=True, mask_scope="everywhere", stop_grad_filter=False):
    return KalmanAhs(1.3, 64, stft_cfg=TINY, fdkf_cfg=TINY_F,
                     mask_scope=mask_scope, stop_grad_filter=stop_grad_filter,
                     **tiny_nets(mask=mask, cov=cov))


def drive_chunks(ahs, ys, xs):
    outs = [ahs.step_open(y, x) for y, x in zip(ys, xs)]
    return np.array(outs)


def random_chunks(count, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((count, TINY.hop))


# ------------------------------------------------------------- construction


def test_construction_validation():
    with pytest.raises(ValueError, match="gain"):
        KalmanAhs(-0.1, 2400)
    with pytest.raises(ValueError, match="delay"):
        KalmanAhs(1.0, 63)  # below one hop of the default transform
    with pytest.raises(ValueError, match="bins"):
        KalmanAhs(1.0, 2400, fdkf_cfg=FdkfConfig(num_bins=5))
    with pytest.raises(ValueError, match="pair"):
        KalmanAhs(1.0, 2400, vv_net=LstmNet(65, (4,), 65, "softplus"))
    with pytest.raises(ValueError, match="mask_scope"):
        KalmanAhs(1.0, 2400, mask_scope="sometimes")


def test_latency_is_overlap():
    assert KalmanAhs(1.0, 2400).latency == 64
    assert tiny_ahs().latency == 8


def test_silence_in_silence_out():
    ahs = KalmanAhs(2.0, 2400)
    for _ in range(50):
        out = ahs(np.zeros(64))
        np.testing.assert_array_equal(out, np.zeros(64))


def test_gain_zero_is_delayed_passthrough():
    # with the loop broken the filter has nothing to subtract, so the output
    # is the microphone signal delayed by the analysis-synthesis latency
    scene = LoopScene(speech_like(1.0, 5), scaled_room_rir(), gain=0.0, delay=0.15)
    res = run_scene(scene, KalmanAhs.for_scene(scene))
    lat = 64
    interior = slice(4 * 64, len(res.y) - lat)
    np.testing.assert_allclose(res.s_hat[lat:][interior], res.y[interior], atol=1e-12)
    err = res.s[interior] - res.s_hat_aligned()[interior]
    sdr = 10 * np.log10(np.sum(res.s[interior] ** 2) / np.sum(err**2))
    assert sdr > 60.0


def test_mirror_matches_loop_loudspeaker():
    # reprocessing the recorded scene open-loop, feeding the loudspeaker
    # samples the loop actually produced, must reproduce the closed-loop
    # output bit for bit — the internal mirror and the simulator agree
    scene = LoopScene(speech_like(1.0, 6), scaled_room_rir(), gain=1.5, delay=0.15)
    ahs = KalmanAhs.for_scene(scene)
    res = run_scene(scene, ahs)

    replay = KalmanAhs.for_scene(scene)
    dly = scene.delay_samples
    x_seen = np.concatenate([np.zeros(dly), res.x])[: len(res.x)]
    hop = replay.cfg.hop
    for t in range(0, len(res.y), hop):
        out = replay.step_open(res.y[t: t + hop], x_seen[t: t + hop])
        np.testing.assert_array_equal(out, res.s_hat[t: t + hop])


def test_deterministic_and_ablation_outputs_distinct():
    scene = LoopScene(speech_like(1.0, 7), scaled_room_rir(), gain=2.0, delay=0.15)
    bins = StftConfig().num_bins

    def nets_for(kind):
        mask = {"mask_net": LstmNet(2 * bins, (8,), bins, "sigmoid", seed=3)}
        cov = {"vv_net": LstmNet(bins, (8,), bins, "softplus", seed=4),
               "dd_net": LstmNet(bins, (8,), bins, "softplus", seed=5)}
        return {
            "none": {},
            "mask": mask,
            "cov": cov,
            "full": {**mask, **cov},
        }[kind]

    outputs = {}
    for kind in ("none", "mask", "cov", "full"):
        res = run_scene(scene, KalmanAhs.for_scene(scene, **nets_for(kind)))
        outputs[kind] = res.s_hat

    repeat = run_scene(scene, KalmanAhs.for_scene(scene))
    np.testing.assert_array_equal(outputs["none"], repeat.s_hat)

    kinds = list(outputs)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert not np.array_equal(outputs[a], outputs[b]), (a, b)


def test_mask_scope_changes_output():
    scene = LoopScene(speech_like(0.7, 8), scaled_room_rir(), gain=1.8, delay=0.15)
    bins = StftConfig().num_bins
    outs = {}
    for scope in MASK_SCOPES:
        mask = LstmNet(2 * bins, (8,), bins, "sigmoid", seed=3)
        res = run_scene(scene, KalmanAhs.for_scene(scene, mask_net=mask, mask_scope=scope))
        outs[scope] = res.s_hat
    assert not np.array_equal(outs["everywhere"], outs["predict_only"])


# ------------------------------------------------------- window bookkeeping


def test_window_bookkeeping_errors():
    ahs = tiny_ahs()
    with pytest.raises(RuntimeError, match="no window"):
        ahs.end_window(np.zeros((1, 9)))
    ahs.begin_window()
    with pytest.raises(RuntimeError, match="already"):
        ahs.begin_window()
    with pytest.raises(ValueError, match="empty"):
        ahs.end_window(np.zeros((0, 9)))
    # the failed end released the tape; record two frames for real
    ahs.begin_window()
    drive_chunks(ahs, random_chunks(2, 0), random_chunks(2, 1))
    assert ahs.window_frames == 2
    with pytest.raises(ValueError, match="shape"):
        ahs.end_window(np.zeros((3, 9)))
    ahs.begin_window()
    drive_chunks(ahs, random_chunks(1, 2), random_chunks(1, 3))
    ahs.abort_window()
    assert ahs.window_frames == 0
    with pytest.raises(RuntimeError, match="no window"):
        ahs.end_window(np.zeros((1, 9)))


def test_window_loss_reproducible_and_positive():
    ys, xs = random_chunks(10, 20), random_chunks(10, 21)
    losses = []
    for _ in range(2):
        ahs = tiny_ahs()
        drive_chunks(ahs, ys[:4], xs[:4])
        ahs.begin_window()
        drive_chunks(ahs, ys[4:], xs[4:])
        loss, grads = ahs.end_window(np.zeros((6, 9)))
        losses.append(loss)
        assert set(grads) == {"mask", "vv", "dd"}
    assert losses[0] == losses[1] > 0.0


@pytest.mark.parametrize("variant", ["classical", "everywhere", "predict_only"])
def test_snapshot_restore_resumes_bitwise(variant):
    # classical covers the covariance smoother, predict_only the separate
    # reference history
    scene = LoopScene(speech_like(0.8, 9), scaled_room_rir(), gain=1.5, delay=0.15)
    bins = StftConfig().num_bins
    nets = {}
    if variant != "classical":
        nets = {"mask_net": LstmNet(2 * bins, (8,), bins, "sigmoid", seed=3),
                "vv_net": LstmNet(bins, (8,), bins, "softplus", seed=4),
                "dd_net": LstmNet(bins, (8,), bins, "softplus", seed=5)}
    scope = "everywhere" if variant == "classical" else variant
    ahs = KalmanAhs.for_scene(scene, mask_scope=scope, **nets)
    y = speech_like(0.8, 10).samples

    def resume():
        return np.concatenate([ahs(y[t: t + 64]) for t in range(30 * 64, 60 * 64, 64)])

    for t in range(0, 30 * 64, 64):
        ahs(y[t: t + 64])
    snap = ahs.snapshot()
    filt = ahs.filt
    at_snap = (filt.W.copy(), filt.P.copy(), filt.X_hist.copy(), filt.clamp_count)
    first = resume()
    ahs.begin_window()
    resume()
    ahs.restore(snap)
    assert ahs.window_frames == 0
    for got, want in zip((ahs.filt.W, ahs.filt.P, ahs.filt.X_hist), at_snap):
        np.testing.assert_array_equal(got, want)
    assert ahs.filt.clamp_count == at_snap[3]
    np.testing.assert_array_equal(resume(), first)

    if nets:
        for name, net in nets.items():
            assert getattr(ahs, name) is net
        nets["mask_net"].params["b_out"] += 1.0
        edited = nets["mask_net"].params["b_out"].copy()
        ahs.restore(snap)
        np.testing.assert_array_equal(ahs.mask_net.params["b_out"], edited)
        assert not np.array_equal(resume(), first)


# ------------------------------------------------------- gradient checking
#
# The window loss is differentiable almost everywhere; targets are offset
# from the recorded magnitudes so the |.| kink is never straddled, and the
# random input chunks keep every |S_hat| bin away from zero.


def _window_inputs(T=6):
    return random_chunks(4 + T, 30), random_chunks(4 + T, 31, scale=0.3)


def _run_window(ahs, snap, ys, xs, targets, want_grads):
    ahs.restore(snap)
    ahs.begin_window()
    drive_chunks(ahs, ys[4:], xs[4:])
    return ahs.end_window(targets, want_grads=want_grads)


def _fd_gradient_check(ahs, net_names, T=6, step=1e-5, tol=1e-4, per_array=12):
    ys, xs = _window_inputs(T)
    drive_chunks(ahs, ys[:4], xs[:4])  # warm start: nonzero W, P, hidden state
    snap = ahs.snapshot()

    ahs.begin_window()
    drive_chunks(ahs, ys[4:], xs[4:])
    mags = np.abs(np.array([entry["s_hat"] for entry in ahs._tape]))
    assert np.min(mags) > 1e-6
    targets = mags + 0.25
    ahs.abort_window()

    loss0, grads = _run_window(ahs, snap, ys, xs, targets, want_grads=True)
    assert np.isfinite(loss0)

    nets = {"mask": ahs.mask_net, "vv": ahs.vv_net, "dd": ahs.dd_net}
    rng = np.random.default_rng(99)
    worst = 0.0
    for name in net_names:
        net = nets[name]
        for key in sorted(net.params):
            arr = net.params[key]
            count = min(per_array, arr.size)
            for idx in rng.choice(arr.size, size=count, replace=False):
                orig = arr.flat[idx]
                arr.flat[idx] = orig + step
                lp, _ = _run_window(ahs, snap, ys, xs, targets, want_grads=False)
                arr.flat[idx] = orig - step
                lm, _ = _run_window(ahs, snap, ys, xs, targets, want_grads=False)
                arr.flat[idx] = orig
                fd = (lp - lm) / (2.0 * step)
                ana = grads[name][key].flat[idx]
                rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-5)
                worst = max(worst, rel)
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


def test_gradient_check_full_model():
    _fd_gradient_check(tiny_ahs(), ("mask", "vv", "dd"))


def test_gradient_check_mask_with_classical_covariances():
    _fd_gradient_check(tiny_ahs(cov=False), ("mask",))


def test_gradient_check_predict_only_scope():
    _fd_gradient_check(tiny_ahs(mask_scope="predict_only"), ("mask", "vv", "dd"))


def test_stop_grad_filter_blocks_recursion_paths():
    # with the filter recursion detached, the covariance nets sit behind
    # K and P only, so their gradients vanish identically; the mask keeps
    # its frame-local path through the prediction and changes value
    ys, xs = _window_inputs(6)

    def window_grads(stop):
        ahs = tiny_ahs(stop_grad_filter=stop)
        drive_chunks(ahs, ys[:4], xs[:4])
        ahs.begin_window()
        drive_chunks(ahs, ys[4:], xs[4:])
        return ahs.end_window(np.zeros((6, 9)))[1]

    stopped = window_grads(True)
    full = window_grads(False)
    for key, g in stopped["vv"].items():
        np.testing.assert_array_equal(g, np.zeros_like(g))
    for key, g in stopped["dd"].items():
        np.testing.assert_array_equal(g, np.zeros_like(g))
    mask_norm = sum(float(np.sum(g * g)) for g in stopped["mask"].values())
    assert mask_norm > 0.0
    assert any(
        not np.array_equal(stopped["mask"][k], full["mask"][k]) for k in full["mask"]
    )


# ------------------------------------------------------------- gain sweeps
# A tuple-gain scene runs every gain in lockstep through one processor; each
# row must be the processor a scalar-gain scene would build.

SLOW_FILTER = FdkfConfig(p_init=1e-3)  # adapts slowly enough to howl at high gain


def sweep_and_solo(sweep, det=None, **kwargs):
    rows = run_scene(sweep, KalmanAhs.for_scene(sweep, **kwargs), det=det)
    solos = []
    for gain in sweep.gain:
        scene = replace(sweep, gain=gain)
        solos.append(run_scene(scene, KalmanAhs.for_scene(scene, **kwargs), det=det))
    return rows, solos


def test_classical_sweep_rows_equal_solo_runs_bitwise():
    sweep = LoopScene(speech_like(0.6, 3), scaled_room_rir(), gain=(0.0, 0.5, 1.0, 3.0, 8.0),
                      delay=0.02)
    rows, solos = sweep_and_solo(sweep, fdkf_cfg=SLOW_FILTER)
    onsets = [row.howl_event for row in rows]
    assert onsets[:2] == [None, None]
    assert None not in onsets[2:] and len(set(onsets[2:])) == 3
    for row, solo in zip(rows, solos):
        assert row.howl_event == solo.howl_event
        for name in ("s", "y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name


def test_neural_sweep_rows_agree_with_solo_runs():
    # the nets' matrix products may sum in another order than the solo
    # matrix-vector ones, so rows agree to rounding, not bit for bit; the
    # loop must stay bounded, since a diverging one amplifies any rounding
    bins = StftConfig().num_bins
    nets = {"mask_net": make_mask_net(bins, hidden=(8,), seed=1),
            "vv_net": make_cov_vv_net(bins, seed=2), "dd_net": make_cov_dd_net(bins, seed=3)}
    sweep = LoopScene(speech_like(0.5, 4), scaled_room_rir(), gain=(0.0, 1.5, 4.0),
                      delay=0.02)
    rows, solos = sweep_and_solo(sweep, **nets)
    for row, solo in zip(rows, solos):
        assert row.howl_event == solo.howl_event
        for name in ("y", "s_hat", "x", "d"):
            np.testing.assert_allclose(getattr(row, name), getattr(solo, name),
                                       rtol=0, atol=1e-12, err_msg=name)


def test_sweep_processor_validation():
    with pytest.raises(ValueError, match="gain"):
        KalmanAhs((), 2400)
    with pytest.raises(ValueError, match="gain"):
        KalmanAhs((1.0, -1.0), 2400)
    ahs = KalmanAhs((0.0, 2.0), 2400)
    assert ahs.rows == 2 and ahs.gain.shape == (2, 1)
    with pytest.raises(ValueError, match="training window"):
        ahs.begin_window()
    np.testing.assert_array_equal(ahs(np.zeros((2, 64))), np.zeros((2, 64)))
