"""Tests for streaming closed-loop training: loss, speech synthesis, the
scene sampler, optimizer plumbing, abort/NaN guards, and checkpointing."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import howlkit.training as training
from howlkit.ahs import KalmanAhs, SuppressorSpec
from howlkit.fdkf import FdkfConfig
from howlkit.loop import ClosedLoop, LoopScene
from howlkit.nets import make_mask_net
from howlkit.rooms import Rir
from howlkit.signals import ConfigError, StftConfig, StreamingStft, TimeSignal, stft
from howlkit.metrics import sdr
from howlkit.loop import run_scene
from howlkit.training import (AdamOptimizer, SceneSampler, TrainConfig, TrainEvent,
                              _clip_global_norm, _resonate, _train_batch, _validate,
                              build_ahs, load_checkpoint, make_default_nets, save_checkpoint,
                              synth_speech, train)
from helpers import train_scene
from oracles import lfilter_resonators, running_mean_grads

FS = 16000
HOP = StftConfig().hop


def quick_scene(duration=0.5, gain=1.2, delay=0.16, seed=0, amp=0.25):
    """Small hand-built scene: noise near end, 3-tap loop path, DC gain 2.5."""
    rng = np.random.default_rng(seed)
    near = amp * rng.standard_normal(int(duration * FS))
    taps = np.zeros(256)
    taps[0], taps[40], taps[150] = 1.0, 0.5, 0.25
    taps *= 2.5 / taps.sum()
    return LoopScene(TimeSignal(near, FS), Rir(taps, FS), gain=gain,
                     delay=delay, seed=seed)


def small_nets(seed=0):
    return make_default_nets(65, mask_hidden=(8,), seed=seed)


def snapshot(nets):
    return {name: {k: v.copy() for k, v in net.params.items()}
            for name, net in nets.items()}


def assert_params_equal(nets, snap):
    for name, net in nets.items():
        for key, arr in net.params.items():
            assert np.array_equal(arr, snap[name][key]), f"{name}/{key} changed"


# ---------------------------------------------------------------------------
# the window loss: L1 between output and target magnitude spectra


def _recorded_window(ahs, frames, seed):
    """Record ``frames`` hops of noise; returns the |s_hat| rows on the tape."""
    rng = np.random.default_rng(seed)
    ahs.begin_window()
    for _ in range(frames):
        ahs.step_open(0.3 * rng.standard_normal(HOP), 0.2 * rng.standard_normal(HOP))
    return np.abs(np.array([entry["s_hat"] for entry in ahs._tape]))


def test_l1_identical_inputs_zero():
    ahs = KalmanAhs(1.0, 2400)
    mags = _recorded_window(ahs, 7, seed=0)
    loss, _ = ahs.end_window(mags, want_grads=False)
    assert loss == 0.0


def test_l1_arithmetic_example():
    # silence in gives |s_hat| = 0, so the loss is the mean target
    ahs = KalmanAhs(1.0, 2400)
    ahs.begin_window()
    for _ in range(2):
        ahs.step_open(np.zeros(HOP), np.zeros(HOP))
    bins = StftConfig().num_bins
    loss, _ = ahs.end_window([[1.0] * bins, [2.0] * bins])
    assert loss == 1.5

    mags = _recorded_window(ahs, 5, seed=1)
    targets = np.random.default_rng(2).random(mags.shape)
    loss, _ = ahs.end_window(targets)
    assert loss == np.mean(np.abs(mags - targets))


# ---------------------------------------------------------------------------
# synth_speech


def test_synth_speech_deterministic_and_normalized():
    a = synth_speech(7, 1.5)
    b = synth_speech(7, 1.5)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate == FS
    assert len(a.samples) == int(1.5 * FS)
    assert np.max(np.abs(a.samples)) == pytest.approx(0.5, abs=1e-12)


def test_synth_speech_harmonic_structure():
    # the first 0.4 s segment is always voiced with a constant pitch, so its
    # spectrum should show lines at integer multiples of the fundamental
    x = synth_speech(3, 1.0).samples
    seg = x[int(0.05 * FS): int(0.35 * FS)]
    mags = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
    freqs = np.fft.rfftfreq(len(seg), 1.0 / FS)
    band = (freqs >= 60.0) & (freqs <= 350.0)
    f0_bin = np.flatnonzero(band)[np.argmax(mags[band])]
    floor = np.median(mags[(freqs >= 60.0) & (freqs <= 4000.0)])
    for k in (2, 3):
        lo, hi = k * f0_bin - 4, k * f0_bin + 5
        peak = mags[lo:hi].max()
        assert peak > 2.0 * floor, f"harmonic {k} missing ({peak} vs {floor})"


def test_synth_speech_seeds_decorrelated():
    a = synth_speech(1, 2.0).samples
    b = synth_speech(2, 2.0).samples
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.2


def test_synth_speech_is_a_cascade_of_three_lfilter_calls_bitwise(monkeypatch):
    want = {}
    for seed in range(50):
        for duration in (0.012, 0.5, 2.0, 4.0):
            want[seed, duration] = synth_speech(seed, duration).samples
    monkeypatch.setattr(training, "_resonate", lfilter_resonators)
    for (seed, duration), got in want.items():
        assert got.tobytes() == synth_speech(seed, duration).samples.tobytes(), (seed, duration)


# signed zeros, subnormals, tiny and huge magnitudes, and ordinary values;
# a zero output keeps its sign only while the state is all zeros, so each
# input leads with a run of signed zeros and smallest subnormals
_LEADING = st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), max_size=12)
_EDGE_SAMPLES = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     1e-200, -1e-200, 1e200, -1e200]),
    st.floats(-1e3, 1e3)), min_size=1, max_size=36)
# synth_speech's resonators (pole radius r at angle theta, gain 1 - r) and
# coefficients of either sign: the x*0.0 terms show in the sign of a zero
# output only for some signs of b0, a1 and a2
_COEFFICIENT = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0]),
                         st.floats(-1.5, 1.5))
_SECTIONS = st.lists(st.one_of(
    st.tuples(st.floats(0.0, 0.999), st.floats(0.0, math.pi)).map(
        lambda p: (1.0 - p[0], -2.0 * p[0] * math.cos(p[1]), p[0] * p[0])),
    st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT)), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_LEADING, _EDGE_SAMPLES, _SECTIONS)
# zero outputs whose signs change when an x*0.0 term is replaced by +0.0
# or, past the first resonator, left out (left out, the first resonator's
# terms changed no output in a random search)
@example([-5e-324, 0.0, -5e-324, -5e-324, -0.0], [],
         [(1.0, -0.5, -0.5), (1.0, -0.5, -0.0), (0.0, 0.5, 1.0)])
@example([5e-324, -5e-324, 0.0, -5e-324], [],
         [(-1.0, 0.5, -0.0), (-1.0, -0.0, 0.5), (0.5, 0.5, 1.0)])
@example([0.0, -5e-324, -0.0, 0.0, 5e-324, -5e-324], [],
         [(1.0, -0.5, -0.5), (-1.0, 0.5, 1.0), (0.5, 1.0, 0.0)])
def test_resonators_equal_lfilter_bitwise_on_edge_values(leading, samples, sections):
    x = np.array(leading + samples, dtype=np.float64)
    assert _resonate(x, sections).tobytes() == lfilter_resonators(x, sections).tobytes()


def test_synth_speech_rejects_bad_duration():
    with pytest.raises(ValueError, match="duration"):
        synth_speech(0, 0.0)


# ---------------------------------------------------------------------------
# the optimizer


def test_adam_zero_lr_is_identity():
    rng = np.random.default_rng(2)
    params = {"net": {"w": rng.standard_normal((3, 3))}}
    before = params["net"]["w"].copy()
    AdamOptimizer(lr=0.0, clip_norm=None).step(
        params, {"net": {"w": rng.standard_normal((3, 3))}})
    assert np.array_equal(params["net"]["w"], before)


def test_clip_actually_limits_norm():
    g = np.full(4, 100.0)
    assert _clip_global_norm({"net": {"w": g}}, 1.0) == 200.0  # the norm before clipping
    assert np.linalg.norm(g) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# TrainConfig / sampler


def test_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="duration"):
        TrainConfig(duration=0.0)
    with pytest.raises(ValueError, match="clip_norm"):
        TrainConfig(clip_norm=0.0)
    TrainConfig(lr=0.0)  # zero learning rate is allowed (no-op training)


def test_sampler_reproducible_and_split_disjoint():
    a = SceneSampler(seed=0, split="train", duration=0.6)
    b = SceneSampler(seed=0, split="train", duration=0.6)
    s1, s2 = a.scene(2), b.scene(2)
    assert np.array_equal(s1.near_end.samples, s2.near_end.samples)
    assert np.array_equal(s1.feedback_rir.taps, s2.feedback_rir.taps)
    assert s1.gain == s2.gain and s1.delay == s2.delay

    t = SceneSampler(seed=0, split="test", duration=0.6)
    for i in range(4):
        train_i, test_i = a.scene(i), t.scene(i)
        assert not np.array_equal(train_i.feedback_rir.taps,
                                  test_i.feedback_rir.taps)


def test_sampler_gain_pin_leaves_other_draws_alone():
    s = SceneSampler(seed=0, split="train", duration=0.6)
    free, pinned = s.scene(5), s.scene(5, gain=2.0)
    assert pinned.gain == 2.0
    assert np.array_equal(free.near_end.samples, pinned.near_end.samples)
    assert np.array_equal(free.feedback_rir.taps, pinned.feedback_rir.taps)
    assert free.delay == pinned.delay


def test_sampler_lifts_infeasible_rt60():
    # very short decay times are physically impossible in these room sizes
    # (absorption would exceed 1); the sampler must lift the draw, not crash
    s = SceneSampler(seed=0, split="train", duration=0.4,
                     rt60_range=(0.01, 0.02))
    for i in range(6):
        s.scene(i)


def test_sampler_rejects_empty_utterance_pool():
    with pytest.raises(ValueError, match="empty"):
        SceneSampler(seed=0, utterances=[])


@pytest.mark.parametrize("kwargs, match", [
    ({"rt60_range": (0.1, 0.9)}, "rt60_range high bound 0.9 above maximum 0.6"),
    ({"gain_range": (-1.0, 2.0)}, "gain_range low bound -1.0 below minimum 0.0"),
    ({"delay_range": (0.3, 0.2)}, r"delay_range must be \(low, high\) with low <= high"),
    ({"coupling_range": (1.0, 2.0, 3.0)}, r"coupling_range must be a \(low, high\) pair"),
    ({"gain_range": 2.0}, r"gain_range must be a \(low, high\) pair"),
])
def test_sampler_validates_its_ranges(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SceneSampler(**kwargs)


def test_sampler_scene_dc_coupling_in_range():
    s = SceneSampler(seed=4, split="train", duration=0.4)
    for i in range(5):
        dc = np.sum(s.scene(i).feedback_rir.taps)
        assert 2.0 <= dc <= 4.0 + 1e-9


# ---------------------------------------------------------------------------
# one scene trained as a one-row batch (helpers.train_scene)


def test_train_scene_zero_lr_reports_loss_without_touching_weights():
    nets = small_nets()
    snap = snapshot(nets)
    cfg = TrainConfig(lr=0.0, duration=0.5)
    nets, event = train_scene(nets, quick_scene(0.5), cfg)
    assert_params_equal(nets, snap)
    assert not event.howl_abort
    assert event.nan_events == 0
    assert np.isfinite(event.loss) and event.loss > 0.0
    assert event.frames > 0


def test_train_scene_deterministic():
    cfg = TrainConfig(lr=1e-4, duration=0.5)
    nets1, e1 = train_scene(small_nets(), quick_scene(0.5), cfg)
    nets2, e2 = train_scene(small_nets(), quick_scene(0.5), cfg)
    assert e1.to_json() == e2.to_json()
    for name in nets1:
        for key in nets1[name].params:
            assert np.array_equal(nets1[name].params[key],
                                  nets2[name].params[key])


def test_train_scene_rejects_long_window():
    scene = quick_scene(0.5, delay=0.1)  # 1600 samples < 32 frames x 64
    with pytest.raises(ValueError, match="exceeds the loop delay"):
        train_scene(small_nets(), scene, TrainConfig())


def test_abort_guard_discards_only_the_aborted_window(monkeypatch):
    # adversarial identity suppressor: internal state (and hence windows and
    # weight updates) advance normally, but the loop hears the raw microphone
    # signal, so G=3 latches and the howling guard fires mid-window.  Weights
    # after the aborted scene must bit-match a twin run truncated at the last
    # closed window boundary: the half-built window contributed nothing.
    import dataclasses

    real_call = KalmanAhs.__call__

    def identity_call(self, y_chunk):
        real_call(self, y_chunk)
        return np.asarray(y_chunk, dtype=np.float64).copy()

    monkeypatch.setattr(KalmanAhs, "__call__", identity_call)
    sampler = SceneSampler(seed=11, split="train", duration=1.2)
    cfg = TrainConfig(duration=1.2)
    for i in range(3):
        scene = sampler.scene(i, gain=3.0)
        nets = small_nets()
        init = snapshot(nets)
        nets, event = train_scene(nets, scene, cfg)
        assert event.howl_abort, f"scene {i} did not howl at G=3"

        frames_at_abort = event.frames
        closed = (frames_at_abort - 1) // cfg.t_bptt
        twin_samples = closed * cfg.t_bptt * HOP
        if closed == 0:
            assert_params_equal(nets, init)
            continue
        twin_scene = dataclasses.replace(
            scene, near_end=TimeSignal(scene.near_end.samples[:twin_samples], FS))
        twin_nets = small_nets()
        twin_nets, twin_event = train_scene(twin_nets, twin_scene, cfg)
        assert not twin_event.howl_abort
        assert_params_equal(nets, snapshot(twin_nets))
        # sanity: the pre-abort windows really did update the weights
        changed = any(
            not np.array_equal(nets[n].params[k], init[n][k])
            for n in nets for k in nets[n].params)
        assert changed


def test_nan_guard_discards_window(monkeypatch):
    real = KalmanAhs.end_window

    def poisoned(self, target_mags, want_grads=True):
        loss, grads = real(self, target_mags, want_grads)
        return float("nan"), grads

    monkeypatch.setattr(KalmanAhs, "end_window", poisoned)
    nets = small_nets()
    snap = snapshot(nets)
    nets, event = train_scene(nets, quick_scene(0.5), TrainConfig(duration=0.5))
    assert event.nan_events == 1
    assert not event.howl_abort
    assert np.isfinite(event.loss)
    assert_params_equal(nets, snap)


def test_window_targets_align_with_batch_stft():
    # reconstruct the training loop by hand, but take the targets from the
    # batch transform of the near-end signal (streaming frame m equals batch
    # frame m-1); the per-window losses must match train_scene's mean
    scene = quick_scene(0.6)
    cfg = TrainConfig(lr=0.0, duration=0.6)
    nets = small_nets()
    _, event = train_scene(nets, scene, cfg)

    ahs = build_ahs(small_nets(), scene)
    engine = ClosedLoop(scene, ahs, frame_size=HOP)
    scfg = ahs.cfg
    target = scene.target()
    batch_mags = np.abs(stft(TimeSignal(target, FS), scfg))
    primer = np.zeros(scfg.frame_len)
    primer[-scfg.hop:] = target[:scfg.hop]
    frame0 = np.abs(np.fft.rfft(primer * scfg.analysis_window))
    stream_mags = np.vstack([frame0, batch_mags])

    losses = []
    frame = 0
    ahs.begin_window()
    while engine.frames_done < engine.total_frames:
        engine.step_frame()
        frame += 1
        done = engine.frames_done >= engine.total_frames
        if ahs.window_frames >= cfg.t_bptt or done:
            count = ahs.window_frames
            targets = stream_mags[frame - count: frame]
            loss, _ = ahs.end_window(targets, want_grads=False)
            losses.append(loss)
            if not done:
                ahs.begin_window()
    assert event.loss == pytest.approx(np.mean(losses), rel=1e-12)


def test_tiny_overfit_halves_loss():
    # repeated passes over one short, mildly coupled scene must at least
    # halve the windowed loss: the optimization plumbing actually optimizes
    from howlkit.rooms import RoomSpec, generate_rir
    from howlkit.training import synth_speech

    speech = synth_speech(5, 2.0)
    fb = generate_rir(RoomSpec((5.0, 4.0, 3.0), (1.2, 1.0, 1.4),
                               (3.8, 3.0, 1.6), rt60=0.15, max_rir_len=1024))
    fb = Rir(fb.taps * (1.3 / np.sum(fb.taps)), FS)
    scene = LoopScene(speech, fb, gain=1.5, delay=0.16, seed=5)

    nets = {"mask": make_mask_net(65, hidden=(8, 8), seed=0)}
    cfg = TrainConfig(duration=2.0, lr=3e-3)
    opt = AdamOptimizer(cfg.lr, cfg.clip_norm)
    first = None
    windows = 0
    last = None
    while windows < 200:
        nets, event = train_scene(nets, scene, cfg, optimizer=opt)
        assert not event.howl_abort and event.nan_events == 0
        if first is None:
            first = event.loss
        last = event.loss
        windows += -(-event.frames // cfg.t_bptt)  # ceil(frames/t_bptt)
    assert last < 0.5 * first, f"loss {first} -> {last}"


# ---------------------------------------------------------------------------
# the stacked batch: one row per scene, each bitwise its solo run


class RecordingOptimizer:
    """Records each step's gradients and leaves the weights alone, so a
    batch and solo runs of its scenes see the same weights throughout."""

    def __init__(self):
        self.steps = []

    def step(self, params, grads):
        self.steps.append(grads)


def stack_scene(seed, gain, delay, duration=0.5, offset=0.0):
    """quick_scene with a loop path of its own: three seeded taps, DC gain
    2.5; ``offset`` adds a DC level to the near end."""
    rng = np.random.default_rng([seed, 1])
    taps = np.zeros(256)
    taps[0] = 1.0
    taps[rng.choice(np.arange(1, 256), 2, replace=False)] = rng.uniform(0.2, 0.6, 2)
    taps *= 2.5 / taps.sum()
    near = offset + 0.25 * np.random.default_rng(seed).standard_normal(int(duration * FS))
    return LoopScene(TimeSignal(near, FS), Rir(taps, FS), gain=gain, delay=delay, seed=seed)


def solo_reference(nets, scene, cfg):
    """One scene trained by hand on the scalar (1-D) suppressor and loop.

    Returns its window gradients, in order, and its TrainEvent fields; the
    weights are never updated.
    """
    ahs = build_ahs(nets, scene)
    engine = ClosedLoop(scene, ahs, frame_size=HOP)
    target_stft = StreamingStft(ahs.cfg)
    mags, losses, windows = [], [], []
    howled = False
    ahs.begin_window()
    while engine.frames_done < engine.total_frames and not howled:
        t = engine.frames_done * HOP
        howled = engine.step_frame()
        mags.append(np.abs(target_stft.push(engine.s[t:t + HOP])))
        done = engine.frames_done == engine.total_frames
        if not howled and (ahs.window_frames == cfg.t_bptt or done):
            count = ahs.window_frames
            loss, grads = ahs.end_window(np.array(mags[-count:]))
            losses.append(loss)
            windows.append(grads)
            if not done:
                ahs.begin_window()
    return windows, dict(frames=engine.frames_done,
                         loss=float(np.mean(losses)) if losses else 0.0,
                         howl_abort=howled, howl_sample=engine.howl_event, nan_events=0,
                         clamp_events=ahs.filt.clamp_count)


def assert_batch_matches_solo_runs(scenes, cfg):
    nets = small_nets()
    opt = RecordingOptimizer()
    ids = [f"s{i}" for i in range(len(scenes))]
    events = _train_batch(nets, scenes, cfg, opt, epoch=0, scene_ids=ids)
    solos = [solo_reference(nets, scene, cfg) for scene in scenes]
    for sid, event, (_, fields) in zip(ids, events, solos):
        assert event == TrainEvent(epoch=0, scene_id=sid, **fields)
    assert len(opt.steps) == max(len(windows) for windows, _ in solos)
    for w, step in enumerate(opt.steps):
        expect = running_mean_grads([windows[w] for windows, _ in solos if w < len(windows)])
        assert sorted(step) == sorted(expect) == ["dd", "mask", "vv"]
        for name in expect:
            for key, g in expect[name].items():
                assert step[name][key].tobytes() == g.tobytes(), (w, name, key)
    return events


def test_stacked_batch_grads_equal_the_average_of_solo_window_grads():
    # distinct gains, delays and loop paths: one lfilter and one delay per row
    scenes = [stack_scene(seed, gain, delay) for seed, gain, delay in
              ((1, 0.8, 0.16), (2, 1.0, 0.2), (3, 1.4, 0.18), (4, 1.2, 0.22))]
    events = assert_batch_matches_solo_runs(scenes, TrainConfig(duration=0.5))
    assert not any(e.howl_abort for e in events)


def test_howling_row_drops_out_mid_window(monkeypatch):
    # the G=3 row hears the raw microphone (as in the abort-guard test) and
    # its near end carries a DC level, so it latches one delay in and leaves
    # the stack mid-window; the rows left keep running bitwise as alone, and
    # its last window contributes nothing
    real_call = KalmanAhs.__call__

    def call(self, y_chunk):
        out = real_call(self, y_chunk)
        return np.where(np.asarray(self.gain) == 3.0, y_chunk, out)

    monkeypatch.setattr(KalmanAhs, "__call__", call)
    cfg = TrainConfig(duration=0.5)
    scenes = [stack_scene(5, 1.2, 0.17), stack_scene(6, 3.0, 0.16, offset=0.3),
              stack_scene(7, 1.0, 0.21)]
    events = assert_batch_matches_solo_runs(scenes, cfg)
    assert [e.howl_abort for e in events] == [False, True, False]
    assert cfg.t_bptt < events[1].frames < events[0].frames
    assert events[1].frames % cfg.t_bptt != 0


def test_validation_stack_equals_the_solo_loop():
    nets = small_nets()
    scenes = SceneSampler(seed=3, split="test", duration=0.5).scenes(3, gain=2.0)
    solo = [run_scene(scene, build_ahs(nets, scene)) for scene in scenes]
    expect = float(np.mean([sdr(res.s, res.s_hat_aligned()) for res in solo]))
    assert _validate(nets, scenes) == expect


# ---------------------------------------------------------------------------
# train


def test_train_rejects_empty_inputs():
    sampler = SceneSampler(seed=0, duration=0.4)
    with pytest.raises(ValueError, match="no nets"):
        train({}, sampler, TrainConfig())
    with pytest.raises(ValueError, match="at least 1"):
        TrainConfig(scenes_per_epoch=0)


def test_train_one_epoch_two_scenes_two_events(tmp_path):
    cfg = TrainConfig(epochs=1, scenes_per_epoch=2, batch_size=8,
                      duration=0.6, validation_scenes=0)
    sampler = SceneSampler(duration=cfg.duration)
    log = tmp_path / "log.jsonl"
    nets, events = train(small_nets(), sampler, cfg, log_path=str(log))
    assert len(events) == 2
    assert [e.scene_id for e in events] == ["train:0", "train:1"]
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["scene"] == "train:0"
    for e in events:
        if not e.howl_abort:
            assert np.isfinite(e.loss)


def test_train_deterministic_event_stream():
    cfg = TrainConfig(epochs=1, scenes_per_epoch=2, batch_size=2,
                      duration=0.6, validation_scenes=0, lr=1e-4)
    run1 = train(small_nets(), SceneSampler(duration=cfg.duration), cfg)
    run2 = train(small_nets(), SceneSampler(duration=cfg.duration), cfg)
    assert [e.to_json() for e in run1[1]] == [e.to_json() for e in run2[1]]
    for name in run1[0]:
        for key in run1[0][name].params:
            assert np.array_equal(run1[0][name].params[key],
                                  run2[0][name].params[key])


def test_train_keeps_best_checkpoint(tmp_path):
    cfg = TrainConfig(epochs=2, scenes_per_epoch=2, batch_size=2,
                      duration=0.6, validation_scenes=1, validation_gain=1.5)
    sampler = SceneSampler(duration=cfg.duration)
    val = SceneSampler(seed=9, split="test", duration=0.6)
    nets, _ = train(small_nets(), sampler, cfg,
                    val_sampler=val, checkpoint_dir=str(tmp_path))
    best = load_checkpoint(str(tmp_path / "best"))
    final_manifest = tmp_path / "final" / "checkpoint.json"
    assert final_manifest.exists()
    for name in nets:  # the returned nets are the best-by-validation ones
        for key in nets[name].params:
            assert np.array_equal(nets[name].params[key],
                                  best[name].params[key])
    meta = json.loads((tmp_path / "best" / "checkpoint.json").read_text())
    assert "val_sdr" in meta and sorted(meta["nets"]) == ["dd", "mask", "vv"]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    nets = small_nets(seed=5)
    opt = AdamOptimizer(lr=1e-3)
    params = {name: net.params for name, net in nets.items()}
    grads = {name: {k: np.ones_like(v) for k, v in tree.items()}
             for name, tree in params.items()}
    opt.step(params, grads)
    save_checkpoint(nets, str(tmp_path), meta={"epoch": 3})
    loaded = load_checkpoint(str(tmp_path))
    assert sorted(loaded) == sorted(nets)
    for name in nets:
        for key in nets[name].params:
            assert np.array_equal(nets[name].params[key],
                                  loaded[name].params[key])
    assert not (tmp_path / "optimizer.npz").exists()
    record = json.loads((tmp_path / "checkpoint.json").read_text())
    assert record["epoch"] == 3


def test_checkpoint_refuses_another_suppressor_spec(tmp_path):
    save_checkpoint(small_nets(seed=5), str(tmp_path))
    other = SuppressorSpec(StftConfig(frame_len=256, hop=128), FdkfConfig(num_taps=8))
    with pytest.raises(ConfigError) as err:
        load_checkpoint(str(tmp_path), other)
    message = str(err.value)
    for diff in ("fdkf.num_taps: checkpoint 20, config 8", "stft.frame_len: checkpoint 128, "
                 "config 256", "stft.hop: checkpoint 64, config 128"):
        assert diff in message
    assert "window" not in message
    # a record that lacks a section or a field differs in every missing key
    record = json.loads((tmp_path / "checkpoint.json").read_text())
    del record["suppressor"]["fdkf"]
    (tmp_path / "checkpoint.json").write_text(json.dumps(record))
    with pytest.raises(ConfigError, match="fdkf.num_taps: checkpoint None, config 20"):
        load_checkpoint(str(tmp_path))
    save_checkpoint(make_default_nets(129, mask_hidden=(8,)), str(tmp_path), other)
    assert load_checkpoint(str(tmp_path), other)["mask"].output_size == 129


def test_checkpoint_refuses_nets_of_another_bin_count(tmp_path):
    # 65-bin nets under a 129-bin spec: nothing is written
    wide = SuppressorSpec(StftConfig(frame_len=256, hop=128), FdkfConfig())
    with pytest.raises(ValueError, match="net 'mask' maps 130 -> 65 features; a 129-bin "
                                         "suppressor needs 258 -> 129"):
        save_checkpoint(make_default_nets(65), str(tmp_path / "wide"), wide)
    assert not (tmp_path / "wide").exists()
    # the mask net reads two frames per bin, the covariance nets one
    with pytest.raises(ValueError, match="net 'mask' maps 65 -> 65 features; a 65-bin "
                                         "suppressor needs 130 -> 65"):
        save_checkpoint({"mask": small_nets()["vv"]}, str(tmp_path / "narrow"))
    with pytest.raises(ValueError, match="net 'dd' maps 130 -> 65"):
        save_checkpoint({"dd": small_nets()["mask"]}, str(tmp_path / "narrow"))
    assert not (tmp_path / "narrow").exists()


def test_checkpoint_missing_dir():
    with pytest.raises(FileNotFoundError):
        load_checkpoint("/tmp/definitely/not/here")
