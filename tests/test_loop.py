"""Closed-loop simulator: recursion correctness, howling, detector rules."""

import json
from dataclasses import replace

import numpy as np
import pytest

from howlkit.ahs import KalmanAhs
from howlkit.loop import (
    ClosedLoop,
    HowlDetectorConfig,
    IdentityAhs,
    LoopScene,
    SceneResult,
    _howl_scan,
    run_scene,
    save_scene_result,
)
from howlkit.rooms import Rir, RoomSpec, convolve_batch, generate_rir
from howlkit.signals import TimeSignal
from howlkit.wavio import read_wav

from oracles import per_hop_closed_loop

FS = 16000
ROOM = RoomSpec(
    dimensions=(5.0, 4.0, 3.0),
    source_pos=(1.0, 1.0, 1.5),
    mic_pos=(3.5, 2.5, 1.5),
    rt60=0.25,
    max_rir_len=2000,
)


def noise_signal(seconds, seed, peak=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(seconds * FS))
    return TimeSignal(peak * x / np.max(np.abs(x)), FS)


def test_gain_zero_breaks_loop():
    scene = LoopScene(noise_signal(0.5, 0), generate_rir(ROOM), gain=0.0, delay=0.15)
    res = run_scene(scene, IdentityAhs())
    np.testing.assert_array_equal(res.y, scene.near_end.samples[: len(res.y)])
    np.testing.assert_array_equal(res.d, np.zeros_like(res.d))


def test_geometric_impulse_recursion():
    s = np.zeros(100)
    s[0] = 1.0
    scene = LoopScene(
        TimeSignal(s, FS), Rir(np.array([1.0]), FS), gain=0.5, delay=10 / FS
    )
    res = run_scene(scene, IdentityAhs(), frame_size=1)
    expected = np.zeros(100)
    for k in range(10):
        expected[10 * k] = 0.5**k
    np.testing.assert_array_equal(res.y, expected)


def test_howling_emerges_with_identity_at_gain_two():
    # the path's DC gain (sum of non-negative taps) is well above 1/G, so the
    # loop saturates within a few delay round trips of buildup
    scene = LoopScene(noise_signal(2.0, 3), generate_rir(ROOM), gain=2.0, delay=0.15)
    res = run_scene(scene, IdentityAhs())
    assert res.howl_event is not None
    # after onset the loudspeaker rails against the clip
    tail = np.abs(res.x[res.howl_event + 2000 :])
    assert np.mean(tail > 0.9) > 0.5


class _PerturbedIdentity:
    """Identity that injects a spike at one global sample index."""

    latency = 0

    def __init__(self, at):
        self.at = at
        self._t = 0

    def __call__(self, frame):
        out = np.array(frame, dtype=np.float64)
        lo, hi = self._t, self._t + len(frame)
        if lo <= self.at < hi:
            out[self.at - lo] += 0.5
        self._t = hi
        return out


def test_causality_perturbation_waits_one_delay():
    rir = Rir(np.array([1.0, -0.4, 0.2]), FS)
    sig = noise_signal(0.2, 7, peak=0.2)
    at = 500
    scene = LoopScene(sig, rir, gain=1.0, delay=128 / FS)
    base = run_scene(scene, IdentityAhs(), frame_size=64)
    pert = run_scene(scene, _PerturbedIdentity(at), frame_size=64)
    d = scene.delay_samples
    np.testing.assert_array_equal(base.y[: at + d], pert.y[: at + d])
    assert pert.y[at + d] != base.y[at + d]  # rir tap 0 is nonzero


def test_frame_size_one_matches_frame_size_64():
    scene = LoopScene(
        noise_signal(0.2, 11),
        generate_rir(RoomSpec(**{**ROOM.__dict__, "max_rir_len": 400})),
        gain=1.5,
        delay=128 / FS,
    )
    a = run_scene(scene, IdentityAhs(), frame_size=1)
    b = run_scene(scene, IdentityAhs(), frame_size=64)
    for name in ("s", "y", "s_hat", "x", "d"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.howl_event == b.howl_event


class _Amplifier:
    latency = 0

    def __call__(self, frame):
        return 1e6 * np.asarray(frame, dtype=np.float64)


def test_saturation_bounds_all_loop_signals():
    rir = generate_rir(ROOM)
    scene = LoopScene(noise_signal(0.3, 5), rir, gain=3.0, delay=0.15, sat=1.0)
    res = run_scene(scene, _Amplifier())
    h_sum = np.sum(np.abs(rir.taps))
    assert np.max(np.abs(res.x)) <= 1.0
    assert np.max(np.abs(res.d)) <= h_sum + 1e-9
    assert np.max(np.abs(res.y)) <= 0.5 + h_sum + 1e-9
    assert np.all(np.isfinite(res.y))


def test_detector_quiet_never_fires():
    first, carry = _howl_scan(np.full(1000, 0.5), HowlDetectorConfig(), 0)
    assert first is None and carry == 0


def test_detector_sustained_run_fires():
    # the run first exceeds run_length=100 at its 101st sample
    first, _ = _howl_scan(np.full(150, 1.2), HowlDetectorConfig(), 0)
    assert first == 100


def test_detector_interrupted_run_resets():
    samples = np.concatenate([np.full(99, 1.2), [0.0], np.full(99, 1.2)])
    first, carry = _howl_scan(samples, HowlDetectorConfig(), 0)
    assert first is None
    assert carry == 99


def test_detector_carry_spans_chunks():
    det = HowlDetectorConfig()
    chunks = [np.full(50, -1.5)] * 3
    carry = 0
    firsts = []
    for c in chunks:
        first, carry = _howl_scan(c, det, carry)
        firsts.append(first)
    assert firsts == [None, None, 0]


def test_detector_quiet_chunk_closes_an_open_run():
    first, carry = _howl_scan(np.full(64, 0.5), HowlDetectorConfig(), 99)
    assert first is None and carry == 0
    first, carry = _howl_scan(np.full(64, 1.5), HowlDetectorConfig(), 99)
    assert first == 1 and carry == 163


def test_detector_negative_excursions_count():
    first, _ = _howl_scan(np.full(120, -2.0), HowlDetectorConfig(), 0)
    assert first == 100


def test_run_scene_validation_errors():
    scene = LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), gain=1.0, delay=0.01)
    with pytest.raises(ValueError, match="frame_size"):
        run_scene(scene, IdentityAhs(), frame_size=1000)
    with pytest.raises(ValueError, match="gain"):
        LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), gain=-1.0, delay=0.01)
    with pytest.raises(ValueError, match="delay"):
        LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), gain=1.0, delay=1e-6)
    with pytest.raises(ValueError, match="sample rate"):
        LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), 8000), gain=1.0, delay=0.01)
    # a gain that is not finite and >= 0, a clip that is not finite and > 0
    for bad in (dict(gain=np.nan), dict(gain=np.inf), dict(sat=np.nan), dict(sat=np.inf),
                dict(sat=0.0), dict(delay=np.inf), dict(delay=np.nan)):
        kwargs = dict(dict(gain=1.0, delay=0.01), **bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), **kwargs)


def test_run_scene_is_deterministic():
    scene = LoopScene(noise_signal(0.3, 9), generate_rir(ROOM), gain=2.0, delay=0.16)
    a = run_scene(scene, IdentityAhs())
    b = run_scene(scene, IdentityAhs())
    for name in ("s", "y", "s_hat", "x", "d"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.howl_event == b.howl_event


def test_near_rir_reverberates_target():
    dry = noise_signal(0.1, 1)
    near = Rir(np.array([1.0, 0.0, 0.25]), FS)
    scene = LoopScene(dry, Rir(np.array([1.0]), FS), gain=1.0, delay=0.01, near_rir=near)
    np.testing.assert_array_equal(scene.target(), convolve_batch(dry.samples, near.taps))


def reverberant_scene(**changes):
    dry = noise_signal(0.1, 1)
    near = Rir(np.array([1.0, 0.0, 0.25]), FS)
    scene = LoopScene(dry, Rir(np.array([1.0]), FS), gain=1.0, delay=0.01, near_rir=near)
    return replace(scene, **changes) if changes else scene


def test_gain_sweep_copies_share_the_target():
    scene = reverberant_scene()
    target = scene.target()
    swept = replace(scene, gain=2.5)
    assert swept == LoopScene(scene.near_end, scene.feedback_rir, gain=2.5, delay=0.01,
                              near_rir=scene.near_rir)
    assert swept.target() is target
    fresh = LoopScene(TimeSignal(scene.near_end.samples.copy(), FS), scene.feedback_rir,
                      gain=2.5, delay=0.01, near_rir=Rir(scene.near_rir.taps.copy(), FS))
    np.testing.assert_array_equal(swept.target(), fresh.target())


def test_replaced_near_rir_recomputes_the_target():
    scene = reverberant_scene()
    scene.target()
    other = Rir(np.array([0.5, 0.5]), FS)
    moved = replace(scene, near_rir=other)
    np.testing.assert_array_equal(moved.target(), convolve_batch(scene.near_end.samples, other.taps))
    # the original keeps its own target, and so does a copy made before any call
    np.testing.assert_array_equal(scene.target(),
                                  convolve_batch(scene.near_end.samples, scene.near_rir.taps))
    early = reverberant_scene()
    dry = replace(early, near_rir=None)
    np.testing.assert_array_equal(dry.target(), early.near_end.samples)
    np.testing.assert_array_equal(early.target(),
                                  convolve_batch(early.near_end.samples, early.near_rir.taps))


def test_target_and_result_stream_are_read_only():
    for scene in (reverberant_scene(), reverberant_scene(near_rir=None)):
        with pytest.raises(ValueError):
            scene.target()[0] = 1.0
        res = run_scene(scene, IdentityAhs())
        with pytest.raises(ValueError):
            res.s[0] = 1.0
        assert scene.near_end.samples.flags.writeable


def test_s_hat_aligned_shifts_by_latency():
    arr = np.arange(6, dtype=np.float64)
    res = SceneResult(
        s=arr, y=arr, s_hat=arr, x=arr, d=arr, howl_event=None,
        ahs_latency=2, sample_rate=FS, gain=1.0, delay_samples=160, seed=0,
    )
    np.testing.assert_array_equal(res.s_hat_aligned(), [2, 3, 4, 5, 0, 0])


def test_save_scene_result_roundtrip(tmp_path):
    scene = LoopScene(noise_signal(0.1, 2), Rir(np.array([1.0, 0.3]), FS), gain=1.2, delay=0.02, seed=42)
    res = run_scene(scene, IdentityAhs())
    manifest_path = save_scene_result(res, str(tmp_path), "scene000")
    manifest = json.loads(open(manifest_path).read())
    assert manifest["gain"] == 1.2
    assert manifest["seed"] == 42
    assert manifest["howl_event"] is None
    back = read_wav(str(tmp_path / manifest["files"]["y"]))
    assert back.sample_rate == FS
    np.testing.assert_allclose(back.samples, res.y, atol=1e-6)


# ------------------------------------------------------------- gain sweeps
# A gain sweep is a stack of gain copies of one scene.


def sweep_of(scene, gains):
    return [replace(scene, gain=g) for g in gains]


def assert_rows_are_solo_runs(sweep, make_ahs=lambda scene: IdentityAhs(), det=None):
    """Each row of a lockstep sweep is bit for bit its own scalar-gain run."""
    rows = run_scene(sweep, make_ahs(sweep), det=det)
    assert len(rows) == len(sweep)
    for row, solo_scene in zip(rows, sweep):
        solo = run_scene(solo_scene, make_ahs(solo_scene), det=det)
        assert row.gain == solo_scene.gain
        assert row.howl_event == solo.howl_event
        for name in ("s", "y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name
    return rows


def coupled_rir(coupling=3.0):
    taps = generate_rir(ROOM).taps
    return Rir(taps * (coupling / np.sum(taps)), FS)


def test_sweep_rows_equal_solo_runs_bitwise():
    sweep = sweep_of(LoopScene(noise_signal(0.6, 3, peak=0.3), coupled_rir(), gain=1.0,
                               delay=0.02), (0.0, 0.2, 1.0, 2.0, 3.0))
    rows = run_scene(sweep, IdentityAhs())
    onsets = [row.howl_event for row in rows]
    # rows that never howl and rows that howl at distinct onsets
    assert onsets[0] is None and onsets[1] is None
    assert None not in onsets[2:] and len(set(onsets[2:])) == 3
    assert_rows_are_solo_runs(sweep)
    # the gain-0 row breaks the loop: nothing reaches the microphone
    assert not rows[0].d.any() and not rows[0].x.any()
    np.testing.assert_array_equal(rows[0].y, rows[0].s)


def test_sweep_frame_by_frame_howl_flags():
    sweep = sweep_of(LoopScene(noise_signal(0.6, 3, peak=0.3), coupled_rir(), gain=1.0,
                               delay=0.02), (0.2, 3.0))
    engine = ClosedLoop(sweep, IdentityAhs())
    fired = [engine.step_frame() for _ in range(engine.total_frames)]
    quiet, loud = engine.result()
    assert quiet.howl_event is None and loud.howl_event is not None
    assert fired.index(True) == loud.howl_event // engine.frame_size
    for row, scene in zip((quiet, loud), sweep):
        solo = run_scene(scene, IdentityAhs())
        assert row.howl_event == solo.howl_event
        assert row.s_hat.tobytes() == solo.s_hat.tobytes()


@pytest.mark.parametrize("sat", [1e-9, 1e-3, 1e6])
def test_sweep_extreme_saturation_rows_equal_solo_runs(sat):
    sweep = sweep_of(LoopScene(noise_signal(0.3, 4), coupled_rir(), gain=1.0, delay=0.02,
                               sat=sat), (0.0, 1.0, 4.0))
    for row in assert_rows_are_solo_runs(sweep):
        assert np.max(np.abs(row.x)) <= sat


def test_sweep_silent_near_end_stays_silent():
    silent = TimeSignal(np.zeros(int(0.2 * FS)), FS)
    sweep = sweep_of(LoopScene(silent, generate_rir(ROOM), gain=1.0, delay=0.02),
                     (0.0, 2.0, 50.0))
    for row in assert_rows_are_solo_runs(sweep):
        assert row.howl_event is None
        for name in ("y", "s_hat", "x", "d"):
            assert not getattr(row, name).any()


def test_sweep_gain_validation():
    sig, rir = noise_signal(0.1, 0), Rir(np.array([1.0]), FS)
    with pytest.raises(ValueError, match="nonnegative"):
        LoopScene(sig, rir, gain=-0.5, delay=0.01)
    sweep = sweep_of(LoopScene(sig, rir, gain=1.0, delay=0.01), (1, 2.5))
    with pytest.raises(ValueError, match="wrong length"):
        run_scene(sweep, lambda frame: frame[0])


def test_tuple_gain_is_rejected():
    sig, rir = noise_signal(0.1, 0), Rir(np.array([1.0]), FS)
    for gain in ((), (1.0,), (1.0, 2.5), [1.0, 2.0], np.array([1.0])):
        with pytest.raises(ValueError, match="one number"):
            LoopScene(sig, rir, gain=gain, delay=0.01)
    with pytest.raises(ValueError, match="one number"):
        replace(LoopScene(sig, rir, gain=1.0, delay=0.01), gain=(1.0, 2.0))


def test_detector_scans_rows_with_their_own_carry():
    det = HowlDetectorConfig(run_length=100)
    chunk = np.full((4, 50), 1.5)
    chunk[1, 20] = 0.0   # breaks row 1's run
    chunk[2] = 0.5       # row 2 is quiet
    first, carry = _howl_scan(chunk, det, np.array([60, 60, 60, 0]))
    # row 0 crosses 100 at its 41st sample; row 1's run restarts at 21
    assert first.tolist() == [40, -1, -1, -1]
    assert carry.tolist() == [110, 29, 0, 50]
    first, carry = _howl_scan(np.full((2, 50), 0.5), det, np.array([99, 3]))
    assert first is None and carry == 0


# ------------------------------------------------------------- scene stacks


def stack_of_scenes():
    """Three scenes with their own source, loop path, gain, delay and clip;
    the loudspeaker moves per scene, so each has its own feedback path."""
    room = replace(ROOM, max_rir_len=600)
    scenes = [LoopScene(noise_signal(0.5, seed, peak=0.3),
                        Rir(generate_rir(replace(room, source_pos=(0.5 * seed, 1.0, 1.5))).taps
                            * coupling, FS),
                        gain=gain, delay=delay, sat=sat, seed=seed)
              for seed, coupling, gain, delay, sat in
              ((1, 0.2, 0.5, 0.02, 1.0), (2, 0.3, 3.0, 0.03, 0.8), (3, 0.25, 2.0, 0.025, 1.0))]
    paths = [sc.feedback_rir.taps / np.max(sc.feedback_rir.taps) for sc in scenes]
    assert all(np.any(a != b) for i, a in enumerate(paths) for b in paths[i + 1:])
    return scenes


def test_stack_rows_equal_solo_runs_bitwise():
    scenes = stack_of_scenes()
    rows = run_scene(scenes, IdentityAhs())
    assert len({row.howl_event for row in rows}) == 3
    for row, scene in zip(rows, scenes):
        solo = run_scene(scene, IdentityAhs())
        assert (row.gain, row.delay_samples, row.seed, row.howl_event) == \
            (solo.gain, solo.delay_samples, solo.seed, solo.howl_event)
        for name in ("s", "y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name


def test_stack_keeps_rows_bitwise_after_a_cut():
    scenes = stack_of_scenes()
    engine = ClosedLoop(scenes, IdentityAhs())
    for _ in range(30):
        engine.step_frame()
    engine.keep([2, 0])
    while engine.frames_done < engine.total_frames:
        engine.step_frame()
    kept = engine.result()
    for row, scene in zip(kept, (scenes[2], scenes[0])):
        solo = run_scene(scene, IdentityAhs())
        for name in ("s", "y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name


def test_stack_rows_share_their_scenes_targets():
    scenes = stack_of_scenes()
    for row, scene in zip(run_scene(scenes, IdentityAhs()), scenes):
        assert np.shares_memory(row.s, scene.target())
    engine = ClosedLoop(scenes, IdentityAhs())
    engine.step_frame()
    engine.keep([2, 0])
    engine.step_frame()
    assert engine.s_frame.tobytes() == np.stack([scenes[2].target()[64:128],
                                                 scenes[0].target()[64:128]]).tobytes()
    for row, scene in zip(engine.result(), (scenes[2], scenes[0])):
        assert np.shares_memory(row.s, scene.target())


def test_stack_validation():
    scenes = stack_of_scenes()
    with pytest.raises(ValueError, match="nonempty"):
        ClosedLoop([], IdentityAhs())
    short = replace(scenes[1], near_end=noise_signal(0.25, 2))
    with pytest.raises(ValueError, match="equally long"):
        ClosedLoop([scenes[0], short], IdentityAhs())
    with pytest.raises(ValueError, match="frame_size"):
        ClosedLoop(scenes, IdentityAhs(), frame_size=401)


# ------------------------------------------------- the per-hop reference loop
# ClosedLoop fills the microphone a span ahead; the reference runs hop by hop.


class _NanAt:
    """Identity that returns NaN at one global sample index (of the first
    row of a stack)."""

    latency = 0

    def __init__(self, at):
        self.at, self._t = at, 0

    def __call__(self, frame):
        out = np.array(frame, dtype=np.float64)
        lo, hi = self._t, self._t + frame.shape[-1]
        if lo <= self.at < hi:
            out[(0,) * (out.ndim - 1) + (self.at - lo,)] = np.nan
        self._t = hi
        return out


def reference_run(scene, ahs, frame_size):
    return per_hop_closed_loop(scene.target(), scene.feedback_rir.taps, scene.gain,
                               scene.delay_samples, scene.sat, ahs, frame_size)


def assert_matches_reference(row, ref, upto=None):
    y, d, s_hat, x, howl = (a[:upto] if isinstance(a, np.ndarray) else a for a in ref)
    assert row.howl_event == howl
    for name, want in (("y", y), ("d", d), ("s_hat", s_hat), ("x", x)):
        got = getattr(row, name)
        assert np.array_equal(got, want, equal_nan=True), name
        assert got[np.isfinite(got)].tobytes() == want[np.isfinite(want)].tobytes(), name


@pytest.mark.parametrize("delay, frame_size", [
    (64, 64),      # the span is one hop
    (2401, 64),    # a delay off the hop grid: spans of 2368
    (2401, 1),
    (2401, 48),
    (2401, 100),
    (300, 100),
])
def test_closed_loop_equals_per_hop_reference_bitwise(delay, frame_size):
    scene = LoopScene(noise_signal(1.0, delay, peak=0.3), coupled_rir(), gain=3.0,
                      delay=delay / FS)
    row = run_scene(scene, IdentityAhs(), frame_size=frame_size)
    ref = reference_run(scene, IdentityAhs(), frame_size)
    assert ref[4] is not None  # the loop howls, so the clip and the scan both act
    assert_matches_reference(row, ref)


@pytest.mark.parametrize("kept", [[2, 1], [0, 2]])
def test_stack_cut_mid_span_equals_per_hop_reference(kept):
    # frame_size 32 puts the cut inside the 64-sample span of the shortest
    # delay; dropping that row lets the next span grow to the next delay's
    scenes = [LoopScene(noise_signal(0.5, dly, peak=0.3), coupled_rir(c), gain=g,
                        delay=dly / FS)
              for dly, c, g in ((64, 0.5, 1.0), (2401, 3.0, 2.0), (4000, 3.0, 0.6))]
    engine = ClosedLoop(scenes, IdentityAhs(), frame_size=32)
    for _ in range(75):
        engine.step_frame()
    head = engine.result()
    engine.keep(kept)
    while engine.frames_done < engine.total_frames:
        engine.step_frame()
    for row, scene in zip(head, scenes):
        assert_matches_reference(row, reference_run(scene, IdentityAhs(), 32), upto=75 * 32)
    for row, r in zip(engine.result(), kept):
        assert_matches_reference(row, reference_run(scenes[r], IdentityAhs(), 32))


def test_nan_from_the_suppressor_mid_span_poisons_the_same_sample():
    at, delay = 3000, 2401  # spans start at 0, 2368, 4736: both ends fall inside one
    scene = LoopScene(noise_signal(0.5, 8, peak=0.3), coupled_rir(), gain=0.5,
                      delay=delay / FS)
    row = run_scene(scene, _NanAt(at))
    ref = reference_run(scene, _NanAt(at), 64)
    assert np.isnan(ref[1][at + delay]) and np.isfinite(ref[1][:at + delay]).all()
    assert_matches_reference(row, ref)
    # and as one row of a stack, beside a row the NaN never reaches
    rows = run_scene([scene, replace(scene, gain=0.7)], _NanAt(at))
    assert_matches_reference(rows[0], ref)
    assert_matches_reference(rows[1], reference_run(replace(scene, gain=0.7), IdentityAhs(), 64))


# ------------------------------------------------------------- span steps
# run_scene hands the suppressor one filled span per call; a span call gives
# the bits of the span's one-frame calls.


class _Recorder:
    """Identity that records the shape of every chunk it is handed."""

    latency = 0

    def __init__(self):
        self.shapes = []

    def __call__(self, chunk):
        self.shapes.append(chunk.shape)
        return np.array(chunk, dtype=np.float64)


@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stack"])
def test_run_scene_makes_one_call_per_filled_span(stacked):
    # 2401 samples hold 37 whole 64-sample frames: spans of 2368 samples, and
    # 16000 samples are 250 frames, six whole spans and 28 frames over
    scene = LoopScene(noise_signal(1.0, 21, peak=0.3), coupled_rir(), gain=1.5,
                      delay=2401 / FS)
    scenes = [scene, replace(scene, delay=4000 / FS)] if stacked else scene
    rec = _Recorder()
    rows = run_scene(scenes, rec)
    lead = (2,) if stacked else ()
    assert rec.shapes == [lead + (2368,)] * 6 + [lead + (28 * 64,)]
    frame_by_frame = ClosedLoop(scenes, IdentityAhs())
    while frame_by_frame.frames_done < frame_by_frame.total_frames:
        frame_by_frame.step_frame()
    for row, want in zip(np.atleast_1d(rows), np.atleast_1d(frame_by_frame.result())):
        assert row.howl_event == want.howl_event
        for name in ("y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("delay", [2401, 64, 300])
def test_run_scene_with_kalman_equals_per_hop_reference_bitwise(delay):
    scene = LoopScene(noise_signal(1.0, delay, peak=0.3), coupled_rir(), gain=2.5,
                      delay=delay / FS)
    row = run_scene(scene, KalmanAhs.for_scene(scene))
    ref = reference_run(scene, KalmanAhs.for_scene(scene), 64)
    assert np.max(np.abs(ref[3])) > 0.1  # the loudspeaker is far from silent
    assert_matches_reference(row, ref)


# which step each frame count takes: frame, span, or frames then spans
STEP_PATTERNS = {
    "frames": lambda i: "frame",
    "spans": lambda i: "span",
    "mixed": lambda i: ("frame", "frame", "span", "frame", "span", "span")[i % 6],
}


@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stack"])
def test_mixed_frame_and_span_steps_give_the_same_bits(stacked):
    scene = LoopScene(noise_signal(1.0, 22, peak=0.3), coupled_rir(), gain=2.5,
                      delay=2401 / FS)
    scenes = [scene, replace(scene, gain=1.0, delay=3203 / FS)] if stacked else scene
    det = HowlDetectorConfig(amp_threshold=0.22, run_length=1)  # fires in the second span
    results, fired = {}, {}
    for name, pattern in STEP_PATTERNS.items():
        engine = ClosedLoop(scenes, KalmanAhs.for_scene(scenes), det=det)
        i, fired[name] = 0, []
        while engine.frames_done < engine.total_frames:
            start = engine.frames_done
            step = engine.step_frame if pattern(i) == "frame" else engine.step_span
            howled = step()
            fired[name].append((start, engine.frames_done, howled))
            i += 1
        results[name] = np.atleast_1d(engine.result())
    for name in ("spans", "mixed"):
        for got, want in zip(results[name], results["frames"]):
            assert got.howl_event == want.howl_event
            for stream in ("y", "s_hat", "x", "d"):
                assert getattr(got, stream).tobytes() == getattr(want, stream).tobytes()
    # the first step to report a howl holds the first onset
    onset = min(row.howl_event for row in results["frames"] if row.howl_event) // 64
    assert onset > 37
    for steps in fired.values():
        start, end, _ = next(step for step in steps if step[2])
        assert start <= onset < end
