"""Tests for evaluation metrics (SDR, LSD), spectrogram export, and the
variant/gain sweep evaluator."""

import os
from dataclasses import replace

import numpy as np
import pytest

from howlkit import loop
from howlkit.ahs import KalmanAhs
from howlkit.loop import IdentityAhs, LoopScene, run_scene
from howlkit.metrics import (SDR_CAP_DB, SDR_FLOOR_DB, EvalReport, EvalRow,
                             evaluate, lsd, sdr, spectrogram_pgm)
from howlkit.nets import make_cov_dd_net, make_cov_vv_net, make_mask_net
from howlkit.rooms import Rir
from howlkit.signals import StftConfig, TimeSignal

FS = 16000


def quick_scene(duration=0.4, gain=1.2, delay=0.16, seed=0, amp=0.25):
    rng = np.random.default_rng(seed)
    near = amp * rng.standard_normal(int(duration * FS))
    taps = np.zeros(256)
    taps[0], taps[40], taps[150] = 1.0, 0.5, 0.25
    taps *= 2.5 / taps.sum()
    return LoopScene(TimeSignal(near, FS), Rir(taps, FS), gain=gain,
                     delay=delay, seed=seed)


# ---------------------------------------------------------------------------
# sdr


def test_sdr_perfect_estimate_hits_cap():
    s = np.sin(np.linspace(0.0, 10.0, 1000))
    assert sdr(s, s.copy()) == SDR_CAP_DB


def test_sdr_zero_estimate_is_zero_db():
    s = np.random.default_rng(0).standard_normal(500)
    assert sdr(s, np.zeros(500)) == pytest.approx(0.0, abs=1e-12)


def test_sdr_half_amplitude():
    s = np.random.default_rng(1).standard_normal(500)
    assert sdr(s, 0.5 * s) == pytest.approx(10.0 * np.log10(4.0), rel=1e-12)


def test_sdr_silent_reference_floor():
    assert sdr(np.zeros(100), np.ones(100)) == SDR_FLOOR_DB


def test_sdr_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        sdr(np.zeros(10), np.zeros(11))


def test_sdr_rate_mismatch():
    a = TimeSignal(np.zeros(100) + 1.0, 16000)
    b = TimeSignal(np.zeros(100) + 1.0, 8000)
    with pytest.raises(ValueError, match="sample rates"):
        sdr(a, b)


def test_sdr_accepts_time_signals():
    s = np.random.default_rng(2).standard_normal(400)
    a = TimeSignal(s, FS)
    b = TimeSignal(0.5 * s, FS)
    assert sdr(a, b) == sdr(s, 0.5 * s)


# ---------------------------------------------------------------------------
# lsd


def test_lsd_identical_is_zero():
    s = np.random.default_rng(3).standard_normal(4000)
    assert lsd(s, s.copy()) == 0.0


def test_lsd_constant_scale_is_constant_offset():
    s = 0.3 * np.random.default_rng(4).standard_normal(8000)
    assert lsd(s, 10.0 * s) == pytest.approx(20.0, abs=1e-3)


def test_lsd_symmetric():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(4000), rng.standard_normal(4000)
    assert lsd(a, b) == pytest.approx(lsd(b, a), rel=1e-12)


def test_lsd_noise_vs_silence_finite():
    s = np.random.default_rng(6).standard_normal(4000)
    val = lsd(s, np.zeros(4000))
    assert np.isfinite(val) and val > 50.0


def test_lsd_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        lsd(np.zeros(100), np.zeros(101))


# ---------------------------------------------------------------------------
# spectrogram export


def test_spectrogram_pgm_format(tmp_path):
    cfg = StftConfig()
    sig = TimeSignal(np.random.default_rng(7).standard_normal(8000), FS)
    path = str(tmp_path / "spec.pgm")
    spectrogram_pgm(sig, path)
    data = open(path, "rb").read()
    assert data.startswith(b"P5\n")
    header, rest = data.split(b"\n255\n", 1)
    _, dims = header.split(b"\n", 1)
    width, height = (int(v) for v in dims.split())
    frames = (8000 - cfg.frame_len) // cfg.hop + 1
    assert width == frames
    assert height == cfg.num_bins
    assert len(rest) == width * height


def test_spectrogram_pgm_deterministic(tmp_path):
    sig = TimeSignal(np.random.default_rng(8).standard_normal(4000), FS)
    p1, p2 = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
    spectrogram_pgm(sig, p1)
    spectrogram_pgm(sig, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_spectrogram_pgm_silent_signal(tmp_path):
    path = str(tmp_path / "quiet.pgm")
    spectrogram_pgm(TimeSignal(np.zeros(4000), FS), path)
    body = open(path, "rb").read().split(b"\n255\n", 1)[1]
    assert set(body) == {0}


def test_spectrogram_pgm_bad_range(tmp_path):
    sig = TimeSignal(np.zeros(2000), FS)
    with pytest.raises(ValueError, match="db_range"):
        spectrogram_pgm(sig, str(tmp_path / "x.pgm"), db_range=(0.0, -80.0))


# ---------------------------------------------------------------------------
# EvalReport


def make_rows():
    rng = np.random.default_rng(9)
    rows = []
    for variant in ("kalman", "none"):
        for gain in (1.5, 2.0):
            for sid in range(5):
                rows.append(EvalRow(variant=variant, gain=gain, scene_id=sid,
                                    sdr=float(rng.normal(0, 10)),
                                    lsd=float(abs(rng.normal(5, 2))),
                                    howled=bool(rng.random() > 0.5)))
    return tuple(rows)


def test_aggregates_match_recomputation():
    report = EvalReport(rows=make_rows())
    aggs = report.aggregates()
    assert len(aggs) == 4
    for (variant, gain), agg in aggs.items():
        rows = [r for r in report.rows if r.variant == variant and r.gain == gain]
        assert agg["count"] == len(rows)
        assert agg["sdr_mean"] == pytest.approx(np.mean([r.sdr for r in rows]), abs=1e-12)
        assert agg["sdr_std"] == pytest.approx(np.std([r.sdr for r in rows]), abs=1e-12)
        assert agg["lsd_mean"] == pytest.approx(np.mean([r.lsd for r in rows]), abs=1e-12)
        assert agg["howl_rate"] == pytest.approx(np.mean([r.howled for r in rows]), abs=1e-12)


def test_csv_roundtrip(tmp_path):
    report = EvalReport(rows=make_rows())
    path = str(tmp_path / "report.csv")
    text = report.to_csv(path)
    assert open(path).read() == text
    lines = text.splitlines()
    assert lines[0] == "variant,gain,scene,sdr_db,lsd_db,howled"
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert first[0] == report.rows[0].variant
    assert float(first[3]) == pytest.approx(report.rows[0].sdr, abs=1e-4)


def test_summary_mentions_each_group():
    report = EvalReport(rows=make_rows())
    text = report.summary()
    assert "kalman" in text and "none" in text
    assert "+/-" in text
    assert len(text.splitlines()) == 1 + 4  # header + one line per group


# ---------------------------------------------------------------------------
# evaluate


def variants_identity_kalman():
    return {
        "none": lambda scene: IdentityAhs(),
        "kalman": lambda scene: KalmanAhs.for_scene(scene),
    }


def test_evaluate_sweeps_variants_and_gains():
    scenes = [quick_scene(seed=i) for i in range(2)]
    report = evaluate(scenes, variants_identity_kalman(), gains=(1.5, 2.0))
    assert len(report.rows) == 2 * 2 * 2
    assert sorted({r.variant for r in report.rows}) == ["kalman", "none"]
    assert sorted({r.gain for r in report.rows}) == [1.5, 2.0]
    assert sorted({r.scene_id for r in report.rows}) == [0, 1]


def test_evaluate_default_gain_grid():
    report = evaluate([quick_scene()], {"none": lambda s: IdentityAhs()})
    assert sorted({r.gain for r in report.rows}) == [1.5, 2.0, 2.5, 3.0]


def test_evaluate_deterministic():
    scenes = [quick_scene(seed=3)]
    r1 = evaluate(scenes, variants_identity_kalman(), gains=(1.5,))
    r2 = evaluate(scenes, variants_identity_kalman(), gains=(1.5,))
    assert r1.rows == r2.rows


def test_evaluate_reverberates_each_scene_once(monkeypatch):
    calls = []
    real = loop.convolve_batch

    def counting(signal, taps):
        calls.append(len(signal))
        return real(signal, taps)

    monkeypatch.setattr(loop, "convolve_batch", counting)
    near = Rir(np.array([1.0, 0.0, 0.3]), FS)
    scenes = [replace(quick_scene(seed=i), near_rir=near) for i in range(2)]
    report = evaluate(scenes, variants_identity_kalman(), gains=(1.5, 2.0, 2.5))
    assert len(report.rows) == 2 * 2 * 3
    assert len(calls) == len(scenes)


def test_evaluate_never_mutates_network_weights():
    net = make_mask_net(65, hidden=(6,), seed=4)
    before = {k: v.copy() for k, v in net.params.items()}
    variants = {"neural": lambda scene: KalmanAhs.for_scene(scene, mask_net=net)}
    evaluate([quick_scene()], variants, gains=(1.5, 2.0))
    for key, arr in net.params.items():
        assert np.array_equal(arr, before[key]), f"{key} mutated"


def test_evaluate_reports_howl_flags():
    # a near end parked above full scale passes straight through the identity
    # suppressor, so the detector must fire and the row must be flagged
    near = TimeSignal(np.full(int(0.5 * FS), 1.2), FS)
    taps = np.zeros(8)
    taps[0] = 2.5
    scene = LoopScene(near, Rir(taps, FS), gain=2.5, delay=0.16)
    report = evaluate([scene], {"none": lambda s: IdentityAhs()}, gains=(2.5,))
    assert report.rows[0].howled
    quiet = evaluate([quick_scene(seed=1)], {"kalman": lambda s: KalmanAhs.for_scene(s)},
                     gains=(1.5,))
    assert not quiet.rows[0].howled


def reference_evaluate(scenes, variants, gains):
    """evaluate as one scalar-gain run_scene per (variant, gain, scene)."""
    rows = []
    for name in sorted(variants):
        for gain in gains:
            for sid, scene in enumerate(scenes):
                swept = replace(scene, gain=float(gain))
                res = run_scene(swept, variants[name](swept))
                s_hat = res.s_hat_aligned()
                rows.append(EvalRow(name, float(gain), sid, sdr(res.s, s_hat),
                                    lsd(res.s, s_hat), res.howl_event is not None))
    return rows


def test_evaluate_rows_equal_scalar_runs():
    scenes = [quick_scene(duration=1.0, delay=0.02, seed=i, gain=0.7) for i in range(2)]
    gains = (0.0, 1.5, 3.0)
    calls = []

    def kalman(scene):
        calls.append(tuple(sc.gain for sc in scene) if isinstance(scene, list) else scene.gain)
        return KalmanAhs.for_scene(scene)

    variants = {"none": lambda scene: IdentityAhs(), "kalman": kalman}
    report = evaluate(scenes, variants, gains=gains)
    # one lockstep stack of gain copies per (variant, scene), whatever the
    # template's gain
    assert calls == [gains, gains]
    reference = reference_evaluate(scenes, variants, gains)
    assert list(report.rows) == reference
    assert {r.howled for r in reference if r.variant == "none"} == {False, True}


def test_evaluate_hands_each_factory_a_stack_of_gain_copies():
    near = Rir(np.array([1.0, 0.0, 0.3]), FS)
    scenes = [replace(quick_scene(seed=i), near_rir=near) for i in range(2)]
    gains = (0.0, 1.5, 2.5)
    seen = []

    def factory(stack):
        seen.append(stack)
        return IdentityAhs()

    evaluate(scenes, {"a": factory, "b": factory}, gains=gains)
    assert len(seen) == 2 * len(scenes)
    for k, stack in enumerate(seen):
        template = scenes[k // 2]
        assert isinstance(stack, list) and len(stack) == len(gains)
        assert [scene.gain for scene in stack] == list(gains)
        for scene in stack:
            assert replace(scene, gain=template.gain) == template
            assert np.shares_memory(scene.target(), template.target())


def test_evaluate_neural_rows_agree_with_scalar_runs():
    bins = StftConfig().num_bins
    nets = {"mask_net": make_mask_net(bins, hidden=(6,), seed=4),
            "vv_net": make_cov_vv_net(bins, seed=5), "dd_net": make_cov_dd_net(bins, seed=6)}
    variants = {"neural": lambda scene: KalmanAhs.for_scene(scene, **nets)}
    scenes = [quick_scene(seed=5)]
    report = evaluate(scenes, variants, gains=(1.5, 2.5))
    # one matrix-vector product per row keeps every row bitwise its solo run
    assert list(report.rows) == reference_evaluate(scenes, variants, (1.5, 2.5))
