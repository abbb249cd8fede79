"""Closed-loop simulator: recursion correctness, howling, detector rules."""

import json
from dataclasses import replace

import numpy as np
import pytest

from howlkit.loop import (
    ClosedLoop,
    DelayLine,
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


def test_delay_line_matches_modular_index_reference():
    rng = np.random.default_rng(5)
    line, ref, pos = DelayLine(10), np.zeros(10), 0
    for count in (3, 4, 10, 7, 1, 10, 9, 2, 6, 5):
        idx = (pos + np.arange(count)) % 10
        np.testing.assert_array_equal(line.peek(count), ref[idx])
        chunk = rng.standard_normal(count)
        line.push(chunk)
        ref[idx] = chunk
        pos = (pos + count) % 10
        np.testing.assert_array_equal(line._buf, ref)
        assert line._pos == pos


def test_per_row_delay_line_matches_modular_index_reference():
    # lines of 10, 7 and 4 samples in one buffer: each row is its own FIFO
    rng = np.random.default_rng(6)
    lengths = (10, 7, 4)
    line = DelayLine(lengths, rows=3)
    refs, pos = [np.zeros(n) for n in lengths], [0, 0, 0]
    for count in (3, 4, 1, 2, 4, 4, 3, 1, 4, 2, 4, 3):
        chunk = rng.standard_normal((3, count))
        peeked = line.peek(count)
        for r, n in enumerate(lengths):
            idx = (pos[r] + np.arange(count)) % n
            np.testing.assert_array_equal(peeked[r], refs[r][idx])
            refs[r][idx] = chunk[r]
            pos[r] = (pos[r] + count) % n
        line.push(chunk)
    with pytest.raises(ValueError, match="line length"):
        line.peek(5)
    line.keep([2, 0])
    np.testing.assert_array_equal(line.peek(4), [refs[2][(pos[2] + np.arange(4)) % 4],
                                                 refs[0][(pos[0] + np.arange(4)) % 10]])


def test_detector_negative_excursions_count():
    first, _ = _howl_scan(np.full(120, -2.0), HowlDetectorConfig(), 0)
    assert first == 100


def test_run_scene_validation_errors():
    scene = LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), gain=1.0, delay=0.01)
    with pytest.raises(ValueError, match="duration"):
        run_scene(scene, IdentityAhs(), duration=5.0)
    with pytest.raises(ValueError, match="frame_size"):
        run_scene(scene, IdentityAhs(), frame_size=1000)
    with pytest.raises(ValueError, match="gain"):
        LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), gain=-1.0, delay=0.01)
    with pytest.raises(ValueError, match="delay"):
        LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), FS), gain=1.0, delay=1e-6)
    with pytest.raises(ValueError, match="sample rate"):
        LoopScene(noise_signal(0.1, 0), Rir(np.array([1.0]), 8000), gain=1.0, delay=0.01)


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


def assert_rows_are_solo_runs(sweep, make_ahs=lambda scene: IdentityAhs(), det=None):
    """Each row of a lockstep sweep is bit for bit its own scalar-gain run."""
    rows = run_scene(sweep, make_ahs(sweep), det=det)
    assert len(rows) == len(sweep.gain)
    for row, gain in zip(rows, sweep.gain):
        solo_scene = replace(sweep, gain=gain)
        solo = run_scene(solo_scene, make_ahs(solo_scene), det=det)
        assert row.gain == gain
        assert row.howl_event == solo.howl_event
        for name in ("s", "y", "s_hat", "x", "d"):
            assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), name
    return rows


def coupled_rir(coupling=3.0):
    taps = generate_rir(ROOM).taps
    return Rir(taps * (coupling / np.sum(taps)), FS)


def test_sweep_rows_equal_solo_runs_bitwise():
    sweep = LoopScene(noise_signal(0.6, 3, peak=0.3), coupled_rir(),
                      gain=(0.0, 0.2, 1.0, 2.0, 3.0), delay=0.02)
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
    sweep = LoopScene(noise_signal(0.6, 3, peak=0.3), coupled_rir(), gain=(0.2, 3.0),
                      delay=0.02)
    engine = ClosedLoop(sweep, IdentityAhs())
    fired = [engine.step_frame() for _ in range(engine.total_frames)]
    quiet, loud = engine.result()
    assert quiet.howl_event is None and loud.howl_event is not None
    assert fired.index(True) == loud.howl_event // engine.frame_size


@pytest.mark.parametrize("sat", [1e-9, 1e-3, 1e6])
def test_sweep_extreme_saturation_rows_equal_solo_runs(sat):
    sweep = LoopScene(noise_signal(0.3, 4), coupled_rir(), gain=(0.0, 1.0, 4.0), delay=0.02,
                      sat=sat)
    for row in assert_rows_are_solo_runs(sweep):
        assert np.max(np.abs(row.x)) <= sat


def test_sweep_silent_near_end_stays_silent():
    silent = TimeSignal(np.zeros(int(0.2 * FS)), FS)
    sweep = LoopScene(silent, generate_rir(ROOM), gain=(0.0, 2.0, 50.0), delay=0.02)
    for row in assert_rows_are_solo_runs(sweep):
        assert row.howl_event is None
        for name in ("y", "s_hat", "x", "d"):
            assert not getattr(row, name).any()


def test_sweep_gain_validation():
    sig, rir = noise_signal(0.1, 0), Rir(np.array([1.0]), FS)
    with pytest.raises(ValueError, match="at least one gain"):
        LoopScene(sig, rir, gain=(), delay=0.01)
    with pytest.raises(ValueError, match="nonnegative"):
        LoopScene(sig, rir, gain=(1.0, -0.5), delay=0.01)
    sweep = LoopScene(sig, rir, gain=(1, 2.5), delay=0.01)
    assert sweep.gain == (1.0, 2.5) and sweep.rows == 2
    assert LoopScene(sig, rir, gain=1.0, delay=0.01).rows is None
    with pytest.raises(ValueError, match="wrong length"):
        run_scene(sweep, lambda frame: frame[0])


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
    """Three scenes with their own source, loop path, gain, delay and clip."""
    room = replace(ROOM, max_rir_len=600)
    return [LoopScene(noise_signal(0.5, seed, peak=0.3),
                      Rir(generate_rir(replace(room, seed=seed, jitter=2.0)).taps * coupling, FS),
                      gain=gain, delay=delay, sat=sat, seed=seed)
            for seed, coupling, gain, delay, sat in
            ((1, 0.2, 0.5, 0.02, 1.0), (2, 0.3, 3.0, 0.03, 0.8), (3, 0.25, 2.0, 0.025, 1.0))]


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
    with pytest.raises(ValueError, match="scalar-gain"):
        ClosedLoop([replace(scenes[0], gain=(1.0, 2.0))], IdentityAhs())
    with pytest.raises(ValueError, match="scalar-gain"):
        ClosedLoop([], IdentityAhs())
    short = replace(scenes[1], near_end=noise_signal(0.25, 2))
    with pytest.raises(ValueError, match="equally long"):
        ClosedLoop([scenes[0], short], IdentityAhs())
    with pytest.raises(ValueError, match="frame_size"):
        ClosedLoop(scenes, IdentityAhs(), frame_size=401)
