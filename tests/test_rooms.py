"""Image-method RIRs and streaming convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from howlkit.rooms import (
    Rir,
    RoomSpec,
    StreamingConvolver,
    convolve_batch,
    convolve_batch_peak,
    generate_rir,
    load_rir,
    save_rir,
)

from oracles import lfilter_stream

ROOM = dict(dimensions=(5.0, 4.0, 3.0), source_pos=(1.0, 1.0, 1.5), mic_pos=(3.5, 2.5, 1.5))


def direct_convolution_oracle(x, h):
    """Brute-force O(n*m) convolution truncated to len(x)."""
    n, m = len(x), len(h)
    out = np.zeros(n)
    for i in range(n):
        lo = max(0, i - m + 1)
        out[i] = sum(x[j] * h[i - j] for j in range(lo, i + 1))
    return out


def test_rt60_zero_is_single_direct_impulse():
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.0))
    nz = np.nonzero(rir.taps)[0]
    dist = np.linalg.norm(np.subtract(ROOM["mic_pos"], ROOM["source_pos"]))
    assert list(nz) == [round(dist * 16000 / 343.0)]
    assert rir.taps[nz[0]] == 1.0


def test_seed_irrelevant_without_jitter():
    a = generate_rir(RoomSpec(**ROOM, rt60=0.25, seed=1))
    b = generate_rir(RoomSpec(**ROOM, rt60=0.25, seed=2))
    np.testing.assert_array_equal(a.taps, b.taps)


def test_jitter_is_seeded_and_deterministic():
    a = generate_rir(RoomSpec(**ROOM, rt60=0.25, seed=7, jitter=0.5))
    b = generate_rir(RoomSpec(**ROOM, rt60=0.25, seed=7, jitter=0.5))
    c = generate_rir(RoomSpec(**ROOM, rt60=0.25, seed=8, jitter=0.5))
    np.testing.assert_array_equal(a.taps, b.taps)
    assert np.any(a.taps != c.taps)


def test_schroeder_decay_fit_near_target_rt60():
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.3, max_rir_len=8000))
    h = rir.taps
    edc = np.cumsum(h[::-1] ** 2)[::-1]
    edc_db = 10 * np.log10(edc / edc[0] + 1e-30)
    t = np.arange(len(h)) / rir.sample_rate
    sel = (edc_db < -5) & (edc_db > -25)
    slope = np.linalg.lstsq(np.vstack([t[sel], np.ones(sel.sum())]).T, edc_db[sel], rcond=None)[0][0]
    fit_t60 = 60.0 / abs(slope)
    assert 0.3 * 0.8 < fit_t60 < 0.3 * 1.2


def test_positions_outside_room_rejected():
    with pytest.raises(ValueError, match="inside"):
        RoomSpec(dimensions=(5, 4, 3), source_pos=(6, 1, 1), mic_pos=(3, 2, 1), rt60=0.3)
    with pytest.raises(ValueError, match="inside"):
        RoomSpec(dimensions=(5, 4, 3), source_pos=(1, 1, 1), mic_pos=(3, 4.0, 1), rt60=0.3)


def test_unachievable_rt60_rejected():
    with pytest.raises(ValueError, match="unachievable"):
        generate_rir(RoomSpec(**ROOM, rt60=0.01))


def test_tail_decays_for_positive_rt60():
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.4, max_rir_len=6400))
    n = len(rir.taps)
    head = np.sum(rir.taps[: n // 10] ** 2)
    tail = np.sum(rir.taps[-n // 10 :] ** 2)
    assert tail < head


def test_impulse_reproduces_taps_across_chunks():
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.2, max_rir_len=500))
    conv = StreamingConvolver(rir)
    x = np.zeros(600)
    x[0] = 1.0
    out = np.concatenate([conv.process(x[i : i + 100]) for i in range(0, 600, 100)])
    np.testing.assert_allclose(out[:500], rir.taps, atol=1e-15)
    assert np.allclose(out[500:], 0.0)


def test_zero_chunks_stay_zero():
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.2, max_rir_len=400))
    conv = StreamingConvolver(rir)
    conv.process(np.random.default_rng(0).standard_normal(300))
    conv.process(np.zeros(len(rir.taps) - 1))  # flushes the noise out of the state
    for _ in range(5):
        assert np.all(conv.process(np.zeros(64)) == 0.0)


def test_streaming_equals_batch_bitwise_random_chunking():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(1000)
    h = rng.standard_normal(37)
    batch = convolve_batch(x, h)
    conv = StreamingConvolver(Rir(h, 16000))
    out = np.concatenate([conv.process(x[i : i + 7]) for i in range(0, 1000, 7)])
    np.testing.assert_array_equal(out[: len(x)], batch)
    # and the batch path agrees with the brute-force direct oracle
    oracle = direct_convolution_oracle(x[:200], h)
    np.testing.assert_allclose(batch[:200], oracle, rtol=1e-12, atol=1e-14)


def test_batch_peak_is_bitwise_the_peak_of_the_direct_form():
    rng = np.random.default_rng(3)
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.3, max_rir_len=2048))
    cases = [(rng.standard_normal(40000) * np.hanning(40000), rir.taps),
             (rng.standard_normal(20000) * 1e-3, rng.standard_normal(1500)),
             (np.r_[np.zeros(9000), 1.0, np.zeros(9000)], rir.taps),   # lone impulse
             (np.ones(30000), np.ones(512)),                          # flat plateau: many ties
             (np.zeros(30000), rir.taps),
             (rng.standard_normal(300), rir.taps),                    # shorter than the taps
             (rng.standard_normal(1000), np.array([-0.7]))]
    for x, taps in cases:
        want = np.max(np.abs(convolve_batch(x, taps)))
        got = convolve_batch_peak(x, taps)
        assert np.float64(got).tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_streaming_chunking_invariance_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 400))
    m = int(rng.integers(1, 60))
    x = rng.standard_normal(n)
    h = rng.standard_normal(m)
    batch = convolve_batch(x, h)
    conv = StreamingConvolver(Rir(h, 16000))
    pieces, i = [], 0
    while i < n:
        step = int(rng.integers(1, 32))
        pieces.append(conv.process(x[i : i + step]))
        i += step
    np.testing.assert_array_equal(np.concatenate(pieces), batch)


@st.composite
def fir_taps(draw):
    """At least one nonzero tap: dense or sparse, with or without leading
    zeros, or a single tap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(st.just(1), st.integers(2, 300)))
    density = draw(st.sampled_from([1.0, 0.3, 0.03]))
    taps = np.where(rng.random(m) < density, rng.standard_normal(m), 0.0)
    taps[:draw(st.integers(0, 4))] = 0.0
    taps[draw(st.integers(0, m - 1))] = rng.standard_normal()
    return taps


def split_at(x, data):
    """x cut along its last axis at drawn points (empty pieces included)."""
    n = x.shape[-1]
    return np.split(x, sorted(data.draw(st.lists(st.integers(0, n), max_size=8))), axis=-1)


@settings(max_examples=60, deadline=None)
@given(fir_taps(), st.integers(0, 600), st.data())
def test_streaming_equals_lfilter_bitwise(taps, n, data):
    x = np.random.default_rng(n).standard_normal(n)
    pieces = split_at(x, data)
    conv = StreamingConvolver(Rir(taps, 16000))
    got = np.concatenate([conv.process(p) for p in pieces])
    assert got.tobytes() == lfilter_stream(taps, pieces).tobytes()
    assert convolve_batch(x, taps).tobytes() == lfilter_stream(taps, [x]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(fir_taps(), min_size=1, max_size=4), st.booleans(), st.integers(1, 400),
       st.data())
def test_row_streams_equal_lfilter_bitwise_before_and_after_keep(paths, shared, n, data):
    """Sweep rows (one shared path) and stack rows (one path each)."""
    rows = len(paths)
    if shared:
        paths = [paths[0]] * rows
        conv = StreamingConvolver(Rir(paths[0], 16000), rows)
    else:
        conv = StreamingConvolver([Rir(t, 16000) for t in paths])
    x = np.random.default_rng(n).standard_normal((rows, n))
    cut = data.draw(st.integers(0, n))
    kept = data.draw(st.permutations(range(rows)))[:data.draw(st.integers(1, rows))]
    head = np.concatenate([conv.process(p) for p in split_at(x[:, :cut], data)], axis=1)
    conv.keep(kept)
    tail = np.concatenate([conv.process(p) for p in split_at(x[kept, cut:], data)], axis=1)
    for r in range(rows):
        assert head[r].tobytes() == lfilter_stream(paths[r], [x[r, :cut]]).tobytes()
    for i, r in enumerate(kept):
        assert tail[i].tobytes() == lfilter_stream(paths[r], [x[r]])[cut:].tobytes()


def test_non_finite_input_poisons_every_later_output_like_lfilter():
    rng = np.random.default_rng(7)
    # the second cut puts the bad sample last in a full 64-sample block
    for at, cuts in ((130, [50, 128, 131, 200]), (127, [64, 128, 192])):
        for taps in ([0.0, 0.5, 0.0, -0.2], [0.7, 0.0, 0.3], [0.5], [0.0, 0.0, 1.0]):
            for bad in (np.nan, np.inf, -np.inf):
                x = rng.standard_normal(300)
                x[at] = bad
                pieces = np.split(x, cuts)
                conv = StreamingConvolver(Rir(np.array(taps), 16000))
                got = np.concatenate([conv.process(p) for p in pieces])
                want = lfilter_stream(taps, pieces)
                assert np.isnan(want[at + 1:]).all() and np.isfinite(want[:at]).all()
                assert np.array_equal(got, want, equal_nan=True)
    # so does an output that overflows
    x = np.ones(200)
    x[60] = 1e308
    got = StreamingConvolver(Rir(np.array([2.0, 1.0]), 16000)).process(x)
    want = lfilter_stream([2.0, 1.0], [x])
    assert np.isinf(want[60]) and np.isnan(want[61:]).all()
    assert np.array_equal(got, want, equal_nan=True)
    # only the row that met the NaN dies, and it stays dead after a cut
    paths = [rng.standard_normal(20), rng.standard_normal(9), rng.standard_normal(33)]
    x = rng.standard_normal((3, 200))
    x[1, 70] = np.nan
    for conv, taps in ((StreamingConvolver(Rir(paths[0], 16000), 3), [paths[0]] * 3),
                       (StreamingConvolver([Rir(t, 16000) for t in paths]), paths)):
        head = conv.process(x[:, :100])
        conv.keep([1, 2])
        tail = conv.process(x[[1, 2], 100:])
        for r in range(3):
            assert np.array_equal(head[r], lfilter_stream(taps[r], [x[r, :100]]), equal_nan=True)
        for i, r in enumerate([1, 2]):
            want = lfilter_stream(taps[r], [x[r]])[100:]
            assert np.array_equal(tail[i], want, equal_nan=True)
            assert np.isnan(want).all() == (r == 1)


def test_exact_zero_outputs_are_positive_where_lfilter_can_give_negative_zero():
    taps = np.array([1.0, 0.5])
    x = np.full(6, -0.0)
    want = lfilter_stream(taps, [x])
    got = StreamingConvolver(Rir(taps, 16000)).process(x)
    assert np.signbit(want).tolist() == [False, True, False, True, False, True]
    assert not np.signbit(got).any()
    np.testing.assert_array_equal(got, want)


def test_rir_save_load_roundtrip(tmp_path):
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.2, max_rir_len=800))
    raw = tmp_path / "path.rir"
    save_rir(raw, rir)
    back = load_rir(raw)
    np.testing.assert_array_equal(back.taps, rir.taps)
    assert back.sample_rate == rir.sample_rate

    wav = tmp_path / "path.wav"
    save_rir(wav, rir)
    back_wav = load_rir(wav)
    assert back_wav.sample_rate == rir.sample_rate
    np.testing.assert_allclose(back_wav.taps, rir.taps, atol=1e-7)  # float32 storage

    with pytest.raises(ValueError, match="magic"):
        bad = tmp_path / "bad.rir"
        bad.write_bytes(b"NOTRIR" + b"\x00" * 16)
        load_rir(bad)
