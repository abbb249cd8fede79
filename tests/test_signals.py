"""Framing, STFT round trips, COLA validation, log-power."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from howlkit.signals import (
    ConfigError,
    StftConfig,
    StreamingIstft,
    StreamingStft,
    TimeSignal,
    istft,
    log_power,
    stft,
)

CFG = StftConfig()


def test_defaults_match_16khz_8ms():
    assert CFG.frame_len == 128
    assert CFG.hop == 64
    assert CFG.sample_rate == 16000
    assert CFG.num_bins == 65
    sig = TimeSignal(np.zeros(1024), 16000)
    frames = stft(sig, CFG)
    assert frames.shape == ((1024 - 128) // 64 + 1, 65)


def test_zero_signal_gives_zero_bins():
    frames = stft(TimeSignal(np.zeros(128), 16000), CFG)
    assert frames.shape == (1, 65)
    assert np.all(frames == 0)


def test_pure_cosine_concentrates_in_bin4():
    # Closed form: rfft of cos(2*pi*4*n/128) over a rectangular 128-frame
    # puts N/2 = 64 in bin 4 and (to rounding) zero elsewhere.
    cfg = StftConfig(window="rect")
    n = np.arange(128)
    x = np.cos(2 * np.pi * 4 * n / 128)
    frames = stft(TimeSignal(x, 16000), cfg)
    mags = np.abs(frames[0])
    assert mags[4] == pytest.approx(64.0, rel=1e-12)
    others = np.delete(mags, 4)
    assert np.max(others) < 1e-9 * mags[4]


def test_signal_too_short_raises():
    with pytest.raises(ValueError, match="too short"):
        stft(TimeSignal(np.zeros(64), 16000), CFG)


def test_non_cola_window_hop_rejected():
    # Plain Hann squared does not overlap-add to a constant at 50% shift.
    with pytest.raises(ConfigError, match="overlap-add"):
        StftConfig(window="hann")
    # Rect at a hop that does not divide the frame is not COLA either.
    with pytest.raises(ConfigError, match="overlap-add"):
        StftConfig(window="rect", hop=48)


def test_roundtrip_interior_white_noise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16000)
    sig = TimeSignal(x, 16000)
    rec = istft(stft(sig, CFG), CFG).samples
    count = (len(x) - 128) // 64 + 1
    interior = slice(CFG.hop, count * CFG.hop)
    err = np.max(np.abs(rec[interior] - x[interior])) / np.max(np.abs(x))
    assert err < 1e-10


def test_istft_empty_and_zero_frames():
    assert len(istft(np.zeros((0, 65), dtype=complex), CFG)) == 0
    out = istft(np.zeros((3, 65), dtype=complex), CFG).samples
    assert np.all(out == 0)
    with pytest.raises(ValueError, match="bins"):
        istft(np.zeros((2, 33), dtype=complex), CFG)


def test_single_frame_roundtrip_matches_cola_normalization():
    # One frame: overlap-add holds w_a*w_s*x, normalization divides by the
    # pointwise window product, recovering x wherever the product is nonzero.
    rng = np.random.default_rng(1)
    x = rng.standard_normal(128)
    frames = stft(TimeSignal(x, 16000), CFG)[:1]
    rec = istft(frames, CFG).samples
    prod = CFG.analysis_window * CFG.synthesis_window
    ok = prod > 1e-10
    np.testing.assert_allclose(rec[ok], x[ok], rtol=0, atol=1e-10 * np.max(np.abs(x)))
    assert np.all(rec[~ok] == 0)


def test_stft_linearity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(640)
    y = rng.standard_normal(640)
    a, b = 0.37, -1.91
    lhs = stft(TimeSignal(a * x + b * y, 16000), CFG)
    rhs = a * stft(TimeSignal(x, 16000), CFG) + b * stft(TimeSignal(y, 16000), CFG)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_parseval_per_frame():
    # Unnormalized one-sided rfft: sum x^2 = (|X0|^2 + 2*sum mid + |X_N/2|^2)/N.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(128)
    windowed = x * CFG.analysis_window
    spec = stft(TimeSignal(x, 16000), CFG)[0]
    t_energy = np.sum(windowed**2)
    f_energy = (np.abs(spec[0]) ** 2 + 2 * np.sum(np.abs(spec[1:-1]) ** 2) + np.abs(spec[-1]) ** 2) / 128
    assert f_energy == pytest.approx(t_energy, rel=1e-9)


def test_log_power_values():
    frame = np.zeros(65, dtype=complex)
    out = log_power(frame, floor=1e-12)
    np.testing.assert_allclose(out, np.log(1e-12))
    frame[3] = 1.0
    assert log_power(frame)[3] == 0.0
    frame[4] = 10.0
    assert log_power(frame)[4] == pytest.approx(np.log(100.0), rel=1e-12)
    with pytest.raises(ValueError):
        log_power(frame, floor=0.0)


def test_timesignal_invariants():
    with pytest.raises(ValueError, match="NaN"):
        TimeSignal(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError, match="sample_rate"):
        TimeSignal(np.zeros(4), 0)
    with pytest.raises(ValueError, match="mono"):
        TimeSignal(np.zeros((2, 4)), 16000)


def test_streaming_stft_matches_batch():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64 * 12)
    batch = stft(TimeSignal(x, 16000), CFG)
    stream = StreamingStft(CFG)
    frames = [stream.push(x[i * 64 : (i + 1) * 64]) for i in range(12)]
    # Streaming frame m covers [(m-1)*hop, (m+1)*hop) = batch frame m-1.
    for m in range(1, 12):
        np.testing.assert_array_equal(frames[m], batch[m - 1])


@pytest.mark.parametrize("rows", [None, 3])
def test_streaming_stft_multi_hop_push_equals_one_hop_pushes(rows):
    # a push of k hops gives the k frames of k one-hop pushes, bit for bit
    rng = np.random.default_rng(6)
    lead = () if rows is None else (rows,)
    x = rng.standard_normal(lead + (64 * 16,))
    one, many = StreamingStft(CFG, rows), StreamingStft(CFG, rows)
    want = np.stack([one.push(x[..., i * 64:(i + 1) * 64]) for i in range(16)], axis=-2)
    got, t = [], 0
    for k in (1, 3, 5, 1, 6):
        chunk = x[..., t:t + 64 * k].reshape(lead + (k, 64))
        got.append(many.push(chunk))
        assert got[-1].shape == lead + (k, 65)
        t += 64 * k
    assert np.concatenate(got, axis=-2).tobytes() == want.tobytes()
    for bad in (np.zeros(lead + (63,)), np.zeros((2,) + lead + (1, 64))):
        with pytest.raises(ValueError, match="whole hops"):
            many.push(bad)


def test_streaming_roundtrip_is_pure_delay():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64 * 20)
    ana = StreamingStft(CFG)
    syn = StreamingIstft(CFG)
    out = np.concatenate([syn.push(ana.push(x[i * 64 : (i + 1) * 64])) for i in range(20)])
    delay = CFG.frame_len - CFG.hop
    np.testing.assert_allclose(out[delay:], x[: -delay or None], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 30))
def test_roundtrip_property(seed, n_frames):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n_frames * 64 + 64)
    rec = istft(stft(TimeSignal(x, 16000), CFG), CFG).samples
    count = (len(x) - 128) // 64 + 1
    interior = slice(64, count * 64)
    assert np.max(np.abs(rec[interior] - x[interior])) <= 1e-10 * max(np.max(np.abs(x)), 1e-30)
