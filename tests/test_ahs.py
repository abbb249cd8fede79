"""Suppressor wiring tests: pass-through exactness, the loudspeaker mirror,
ablation plumbing, and finite-difference checks of whole-window gradients."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from howlkit.ahs import KalmanAhs, SuppressorSpec
from howlkit.fdkf import FdkfConfig
from howlkit.loop import ClosedLoop, LoopScene, run_scene
from howlkit.nets import HiddenState, LstmNet, make_cov_dd_net, make_cov_vv_net, make_mask_net
from howlkit.rooms import Rir, RoomSpec, generate_rir
from howlkit.signals import StftConfig, TimeSignal
from oracles import fifo_loudspeaker, per_frame_weight_grads

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
TINY_SPEC = SuppressorSpec(TINY, FdkfConfig(num_taps=2))


def tiny_nets(mask=True, cov=True):
    nets = {}
    if mask:
        nets["mask_net"] = LstmNet(18, (6,), 9, "sigmoid", seed=11)
    if cov:
        nets["vv_net"] = LstmNet(9, (5,), 9, "softplus", seed=12)
        nets["dd_net"] = LstmNet(9, (5,), 9, "softplus", seed=13)
    return nets


def tiny_ahs(mask=True, cov=True, stop_grad_filter=False):
    return KalmanAhs(1.3, 64, spec=TINY_SPEC,
                     stop_grad_filter=stop_grad_filter, **tiny_nets(mask=mask, cov=cov))


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
    with pytest.raises(ValueError, match="pair"):
        KalmanAhs(1.0, 2400, vv_net=LstmNet(65, (4,), 65, "softplus"))


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


# ------------------------------------------------------ loudspeaker mirror
# The processor mirrors its own loudspeaker a span of hops ahead.  Replaying
# a run open-loop, fed the loop's loudspeaker stream through a plain FIFO of
# the loop delay, must give the closed-loop output bit for bit.


def assert_mirror_replays(result, **kwargs):
    """A fresh processor for ``result``'s gain, delay and clip, driven by
    step_open with the FIFO-delayed loudspeaker stream, reproduces it."""
    replay = KalmanAhs(result.gain, result.delay_samples, **kwargs)
    heard = fifo_loudspeaker(result.x, result.delay_samples, replay.cfg.hop)
    hop = replay.cfg.hop
    out = np.concatenate([replay.step_open(result.y[t:t + hop], heard[t:t + hop])
                          for t in range(0, len(result.y), hop)])
    assert out.tobytes() == result.s_hat.tobytes()


def default_nets():
    bins = StftConfig().num_bins
    return {"mask_net": LstmNet(2 * bins, (8,), bins, "sigmoid", seed=3),
            "vv_net": LstmNet(bins, (8,), bins, "softplus", seed=4),
            "dd_net": LstmNet(bins, (8,), bins, "softplus", seed=5)}


def test_mirror_matches_loop_loudspeaker():
    # a 0.15 s delay is 2400 samples, 37.5 hops: off the hop grid
    scene = LoopScene(speech_like(1.0, 6), scaled_room_rir(), gain=1.5, delay=0.15)
    res = run_scene(scene, KalmanAhs.for_scene(scene))
    assert res.delay_samples % 64 and np.max(np.abs(res.x)) > 0.1
    assert_mirror_replays(res)


def test_mirror_off_the_hop_grid_matches_fifo():
    for dly in (64, 127, 2401, 4000):
        scene = LoopScene(speech_like(0.6, 11), scaled_room_rir(), gain=2.0, delay=dly / FS)
        res = run_scene(scene, KalmanAhs.for_scene(scene))
        assert res.delay_samples == dly
        assert_mirror_replays(res)


@pytest.mark.parametrize("delays", [(64, 2401, 4000), (2401, 4000, 3203)],
                         ids=["span1", "span37"])
def test_mirror_stack_cut_mid_span_matches_fifo(delays):
    # the shortest delay sets the span (1 and 37 hops); a keep at hop 50
    # falls mid-span for the second stack, and the kept rows go on
    scenes = [LoopScene(speech_like(0.8, 12 + i), scaled_room_rir(), gain=g, delay=d / FS)
              for i, (g, d) in enumerate(zip((1.5, 2.0, 2.5), delays))]
    engine = ClosedLoop(scenes, KalmanAhs.for_scene(scenes))
    for _ in range(50):
        engine.step_frame()
    engine.keep([2, 0])
    while engine.frames_done < engine.total_frames:
        engine.step_frame()
    kept = engine.result()
    assert [r.delay_samples for r in kept] == [delays[2], delays[0]]
    for res in kept:
        assert_mirror_replays(res)


@pytest.mark.parametrize("case", ["gain0", "sat1e-6", "sat1e6", "silence"])
def test_mirror_edge_values_match_fifo(case):
    source = speech_like(0.6, 13)
    gain, sat = {"gain0": (0.0, 1.0), "sat1e-6": (2.5, 1e-6), "sat1e6": (2.5, 1e6),
                 "silence": (2.5, 1.0)}[case]
    if case == "silence":
        source = TimeSignal(np.zeros(len(source)), FS)
    scene = LoopScene(source, scaled_room_rir(), gain=gain, delay=0.16, sat=sat)
    res = run_scene(scene, KalmanAhs.for_scene(scene))
    assert np.max(np.abs(res.x)) <= sat
    if case == "silence":
        assert not np.any(res.s_hat)
    assert_mirror_replays(res, sat=sat)


def test_mirror_snapshot_mid_span_restores_twice():
    ahs = KalmanAhs(2.0, 2401, sat=0.5)  # spans of 37 hops
    y = speech_like(0.8, 14).samples
    hops = [y[t:t + 64] for t in range(0, 120 * 64, 64)]
    head = [ahs(chunk) for chunk in hops[:50]]
    snap = ahs.snapshot()
    tail = [ahs(chunk) for chunk in hops[50:]]
    for _ in range(2):
        ahs.restore(snap)
        again = [ahs(chunk) for chunk in hops[50:]]
        assert np.array_equal(again, tail)
    out = np.concatenate(head + tail)
    heard = fifo_loudspeaker(np.minimum(np.maximum(2.0 * out, -0.5), 0.5), 2401, 64)
    replay = KalmanAhs(2.0, 2401, sat=0.5)
    got = [replay.step_open(chunk, heard[k * 64:(k + 1) * 64]) for k, chunk in enumerate(hops)]
    assert np.concatenate(got).tobytes() == out.tobytes()


def test_mirror_neural_variant_matches_fifo():
    nets = default_nets()
    scene = LoopScene(speech_like(0.8, 15), scaled_room_rir(), gain=2.0, delay=0.17)
    res = run_scene(scene, KalmanAhs.for_scene(scene, **nets))
    assert_mirror_replays(res, **nets)
    # a stack's rows mirror their own delays with the nets attached too
    stack = [scene, replace(scene, gain=1.5, delay=0.2)]
    for row in run_scene(stack, KalmanAhs.for_scene(stack, **nets)):
        assert_mirror_replays(row, **nets)


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


# ------------------------------------------------------------- span calls
# A call with k hops gives the bits of k one-hop calls, wherever the
# mirror's spans end and wherever a stack loses rows.

SPAN_KS = (1, 2, 36, 37, 38, 3 * 37 + 5)  # around spans of 37 hops


def span_nets(kind):
    nets = default_nets()
    return {"classical": {}, "mask": {"mask_net": nets["mask_net"]}, "full": nets}[kind]


def call_in_chunks(ahs, y, k, hop, cut=None, kept=None):
    """Outputs of ``ahs`` fed ``y`` in chunks of ``k`` hops, a chunk ending
    at hop ``cut``, after which only the ``kept`` rows go on; returns the
    outputs before and after the cut."""
    parts, t, total = [[], []], 0, y.shape[-1] // hop
    while t < total:
        end = min(t + k, total)
        if cut is not None and t < cut < end:
            end = cut
        out = ahs(y[..., t * hop:end * hop])
        assert out.shape == y.shape[:-1] + ((end - t) * hop,)
        parts[cut is not None and t >= cut].append(out)
        t = end
        if t == cut:
            ahs.keep(kept)
            y = y[kept]
    return [np.concatenate(p, axis=-1) if p else None for p in parts]


@pytest.mark.parametrize("kind", ["classical", "mask", "full"])
def test_span_calls_equal_one_hop_calls_solo(kind):
    y = speech_like(1.0, 16).samples[:200 * 64]
    want = call_in_chunks(KalmanAhs(2.0, 2401, **span_nets(kind)), y, 1, 64)[0]
    assert np.max(np.abs(want)) > 0.1
    for k in SPAN_KS:
        got = call_in_chunks(KalmanAhs(2.0, 2401, **span_nets(kind)), y, k, 64)[0]
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("delays", [(64, 2401, 4000), (2401, 4000, 3203)],
                         ids=["span1", "span37"])
@pytest.mark.parametrize("kind", ["classical", "mask", "full"])
def test_span_calls_equal_one_hop_calls_stacked_with_a_cut(kind, delays):
    y = np.stack([speech_like(0.8, 17 + i).samples[:180 * 64] for i in range(3)])

    def run(k):
        ahs = KalmanAhs((1.5, 2.0, 2.5), delays, sat=(1.0, 0.5, 1.0), **span_nets(kind))
        return call_in_chunks(ahs, y, k, 64, cut=120, kept=[2, 0])

    head, tail = run(1)
    for k in SPAN_KS:
        got = run(k)
        assert got[0].tobytes() == head.tobytes(), k
        assert got[1].tobytes() == tail.tobytes(), k


def _leaves(tree):
    if isinstance(tree, (list, tuple)):
        return [leaf for item in tree for leaf in _leaves(item)]
    if isinstance(tree, dict):
        return [leaf for key in sorted(tree) for leaf in _leaves(tree[key])]
    if isinstance(tree, HiddenState):
        return _leaves([tree.h, tree.c])
    return [tree]


@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stack"])
def test_span_calls_record_the_tape_of_one_hop_calls(stacked):
    # tiny spans of 12 hops (100 samples over 8-sample hops); the window
    # opens after 5 hops and records 41
    gains, delays, sat = ((1.3, 1.1, 0.9), (100, 130, 177), (1.0, 0.3, 1.0)) if stacked else (
        1.3, 100, 1.0)
    lead = (3,) if stacked else ()
    rng = np.random.default_rng(50)
    ys = 0.4 * rng.standard_normal(lead + (46 * 8,))
    targets = rng.uniform(0.0, 0.2, (41,) + lead + (9,))

    def window(k):
        ahs = KalmanAhs(gains, delays, sat=sat, spec=TINY_SPEC, **tiny_nets())
        call_in_chunks(ahs, ys[..., :5 * 8], k, 8)
        ahs.begin_window()
        call_in_chunks(ahs, ys[..., 5 * 8:], k, 8)
        tape = [_leaves(entry) for entry in ahs._tape]
        loss, grads = ahs.end_window(targets)
        return tape, loss, grads

    tape, loss, grads = window(1)
    for k in (2, 11, 12, 13, 41):
        got_tape, got_loss, got_grads = window(k)
        assert len(got_tape) == len(tape) == 41
        for got_entry, entry in zip(got_tape, tape):
            for got, want in zip(got_entry, entry):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), k
        assert np.asarray(got_loss).tobytes() == np.asarray(loss).tobytes()
        for name, tree in grads.items():
            for key, g in tree.items():
                assert got_grads[name][key].tobytes() == g.tobytes(), (k, name, key)


def test_span_calls_refuse_chunks_of_part_hops():
    ahs = KalmanAhs(2.0, 2401)
    for bad in (np.zeros(100), np.zeros(0), np.zeros((2, 128))):
        with pytest.raises(ValueError, match="whole hops"):
            ahs(bad)
    # a list of samples is taken like the array of them
    y = speech_like(0.1, 19).samples[:3 * 64]
    lists, arrays = KalmanAhs(2.0, 2401), KalmanAhs(2.0, 2401)
    for chunk in (y[:64], y[64:]):
        assert lists(chunk.tolist()).tobytes() == arrays(chunk).tobytes()


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
    snap = ahs.snapshot()
    ahs.begin_window()
    drive_chunks(ahs, random_chunks(1, 2), random_chunks(1, 3))
    ahs.restore(snap)  # drops the open window
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


@pytest.mark.parametrize("variant", ["classical", "everywhere"])
def test_snapshot_restore_resumes_bitwise(variant):
    # classical covers the covariance smoother
    scene = LoopScene(speech_like(0.8, 9), scaled_room_rir(), gain=1.5, delay=0.15)
    bins = StftConfig().num_bins
    nets = {}
    if variant != "classical":
        nets = {"mask_net": LstmNet(2 * bins, (8,), bins, "sigmoid", seed=3),
                "vv_net": LstmNet(bins, (8,), bins, "softplus", seed=4),
                "dd_net": LstmNet(bins, (8,), bins, "softplus", seed=5)}
    ahs = KalmanAhs.for_scene(scene, **nets)
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


def test_window_grads_after_keep_equal_per_frame_sums(monkeypatch):
    # a three-row stack loses its middle row mid-window; each net then sums
    # the kept rows' part of the tape, one matrix product per weight
    window_grads = LstmNet.window_grads
    checked = []

    def checked_window_grads(net, caches, gate_grads):
        got = window_grads(net, caches, gate_grads)
        want = per_frame_weight_grads(net.hidden_sizes, caches, gate_grads)
        for key, value in want.items():
            assert got[key].shape[0] == 2
            np.testing.assert_allclose(got[key], value, rtol=1e-12, err_msg=key)
        checked.append(got)
        return got

    monkeypatch.setattr(LstmNet, "window_grads", checked_window_grads)
    ahs = KalmanAhs((1.3, 1.1, 0.9), (64, 64, 64), sat=(1.0, 1.0, 1.0),
                    spec=TINY_SPEC, **tiny_nets())
    T = 10
    ys = random_chunks(3 * T, 40).reshape(T, 3, TINY.hop)
    xs = random_chunks(3 * T, 41, scale=0.3).reshape(T, 3, TINY.hop)
    rows = [0, 1, 2]
    ahs.begin_window()
    for t in range(T):
        if t == 4:
            rows = [0, 2]
            ahs.keep(rows)
        ahs.step_open(ys[t][rows], xs[t][rows])
    _, grads = ahs.end_window(np.ones((T, 2, TINY.num_bins)))
    assert list(grads) == ["mask", "vv", "dd"]
    assert all(grads[name] is got for name, got in zip(grads, checked))


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
# A stack of gain copies of one scene runs every gain in lockstep through one
# processor; each row must be the processor its scene would build alone.

# adapts slowly enough to howl at high gain
SLOW_FILTER = SuppressorSpec(fdkf=FdkfConfig(p_init=1e-3))


def sweep_and_solo(scene, gains, det=None, **kwargs):
    sweep = [replace(scene, gain=g) for g in gains]
    rows = run_scene(sweep, KalmanAhs.for_scene(sweep, **kwargs), det=det)
    solos = [run_scene(sc, KalmanAhs.for_scene(sc, **kwargs), det=det) for sc in sweep]
    return rows, solos


def test_classical_sweep_rows_equal_solo_runs_bitwise():
    scene = LoopScene(speech_like(0.6, 3), scaled_room_rir(), gain=1.0, delay=0.02)
    rows, solos = sweep_and_solo(scene, (0.0, 0.5, 1.0, 3.0, 8.0), spec=SLOW_FILTER)
    onsets = [row.howl_event for row in rows]
    assert onsets[:2] == [None, None]
    assert None not in onsets[2:] and len(set(onsets[2:])) == 3
    for row, solo in zip(rows, solos):
        assert row.howl_event == solo.howl_event
        for name in ("s", "y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name


def test_neural_sweep_rows_agree_with_solo_runs():
    # the nets run one matrix-vector product per row, so rows are bitwise
    # their solo runs
    bins = StftConfig().num_bins
    nets = {"mask_net": make_mask_net(bins, hidden=(8,), seed=1),
            "vv_net": make_cov_vv_net(bins, seed=2), "dd_net": make_cov_dd_net(bins, seed=3)}
    scene = LoopScene(speech_like(0.5, 4), scaled_room_rir(), gain=1.0, delay=0.02)
    rows, solos = sweep_and_solo(scene, (0.0, 1.5, 4.0), **nets)
    for row, solo in zip(rows, solos):
        assert row.howl_event == solo.howl_event
        for name in ("y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name


def test_sweep_processor_validation():
    with pytest.raises(ValueError, match="gain"):
        KalmanAhs((), ())
    with pytest.raises(ValueError, match="gain"):
        KalmanAhs((1.0, -1.0), (2400, 2400), sat=(1.0, 1.0))
    with pytest.raises(ValueError, match="one value per row"):
        KalmanAhs((1.0, 2.0), (2400, 2400, 2400), sat=(1.0, 1.0))
    with pytest.raises(ValueError, match="one value per row"):
        KalmanAhs(1.0, 2400, sat=(1.0, 1.0))
    # a multi-row processor takes each row's delay and clip, never one for all
    with pytest.raises(ValueError, match="delay_samples gives one value per row"):
        KalmanAhs((1.0, 2.0), 2400, sat=(1.0, 1.0))
    with pytest.raises(ValueError, match="sat gives one value per row"):
        KalmanAhs((1.0, 2.0), (2400, 2400))
    ahs = KalmanAhs((0.0, 2.0), (2400, 2400), sat=(1.0, 1.0))
    assert ahs.rows == 2 and ahs.gain.shape == (2, 1)
    # a multi-row processor records a window of its own per row
    ahs.begin_window()
    np.testing.assert_array_equal(ahs(np.zeros((2, 64))), np.zeros((2, 64)))
    loss, grads = ahs.end_window(np.ones((1, 2, 65)))
    assert loss.tolist() == [1.0, 1.0] and grads == {}
