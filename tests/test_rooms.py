"""Image-method RIRs and streaming convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

import howlkit.cli as cli
from howlkit.rooms import (
    Rir,
    RoomSpec,
    StreamingConvolver,
    _fft_size,
    convolve_batch,
    convolve_batch_peak,
    generate_rir,
)
from howlkit.wavio import read_wav

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


def test_fft_size_is_scipys_next_fast_len():
    assert [n for n in range(1, 200000) if _fft_size(n) != next_fast_len(n, real=True)] == []


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
@given(st.lists(fir_taps(), min_size=1, max_size=4), st.booleans(), st.integers(1, 40 * 64),
       st.data())
def test_row_streams_equal_lfilter_bitwise_before_and_after_keep(paths, shared, n, data):
    """Stack rows, each with its own path or all sharing one (a gain sweep)."""
    rows = len(paths)
    if shared:
        paths = [paths[0]] * rows
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


# one chunk under, at and over a block, a full span, over a span, and
# several spans with a tail
SPAN_LENGTHS = (63, 64, 65, 32 * 64, 32 * 64 + 1, 100 * 64 + 17)


def span_paths(rows):
    rng = np.random.default_rng(rows)
    rir = generate_rir(RoomSpec(**ROOM, rt60=0.3, max_rir_len=1024))
    return [rir.taps] + [np.where(rng.random(m) < 0.3, rng.standard_normal(m), 0.0)
                         for m in (37, 300)][:rows - 1]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", SPAN_LENGTHS)
def test_one_multi_block_chunk_equals_hops_and_lfilter_bitwise(rows, n):
    paths = span_paths(rows)
    rirs = [Rir(t, 16000) for t in paths]
    x = np.random.default_rng(n).standard_normal((rows, 2 * n))
    if rows == 1:  # a single Rir streams 1-D chunks
        rirs, x = rirs[0], x[0]
    whole, hops = StreamingConvolver(rirs), StreamingConvolver(rirs)
    # a warm state first, then the chunk under test
    got = np.concatenate([whole.process(x[..., :n]), whole.process(x[..., n:])], axis=-1)
    by_hop = np.concatenate([hops.process(x[..., lo:lo + 64]) for lo in range(0, 2 * n, 64)],
                            axis=-1)
    assert got.tobytes() == by_hop.tobytes()
    got, x = np.atleast_2d(got), np.atleast_2d(x)
    for r, taps in enumerate(paths):
        assert got[r].tobytes() == lfilter_stream(taps, [x[r, :n], x[r, n:]]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_mid_span_poisons_like_lfilter(bad):
    paths = span_paths(3)
    x = np.random.default_rng(9).standard_normal((3, 100 * 64 + 17))
    x[1, 20 * 64 + 5] = bad      # mid-way through the first span
    x[2, 40 * 64] = bad          # first sample of a block in the second span
    conv = StreamingConvolver([Rir(t, 16000) for t in paths])
    got = np.concatenate([conv.process(x[:, :5000]), conv.process(x[:, 5000:])], axis=1)
    for r, taps in enumerate(paths):
        want = lfilter_stream(taps, [x[r]])
        assert np.isfinite(want).all() == (r == 0)
        assert np.array_equal(got[r], want, equal_nan=True)


def test_keep_between_two_span_calls():
    paths = span_paths(3)
    x = np.random.default_rng(4).standard_normal((3, 2 * 37 * 64))
    x[0, 100] = np.nan
    conv = StreamingConvolver([Rir(t, 16000) for t in paths])
    head = conv.process(x[:, :37 * 64])
    conv.keep([2, 0])
    tail = conv.process(x[[2, 0], 37 * 64:])
    for r in range(3):
        assert np.array_equal(head[r], lfilter_stream(paths[r], [x[r, :37 * 64]]),
                              equal_nan=True)
    for i, r in enumerate([2, 0]):
        assert np.array_equal(tail[i], lfilter_stream(paths[r], [x[r]])[37 * 64:],
                              equal_nan=True)


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
    for taps in ([paths[0]] * 3, paths):
        conv = StreamingConvolver([Rir(t, 16000) for t in taps])
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


def test_rir_save_load_roundtrip(tmp_path, monkeypatch, capsys):
    # `howlkit rir` writes each path as a float32 WAV that read_wav returns
    made = []

    def recording(spec):
        made.append(generate_rir(spec))
        return made[-1]

    monkeypatch.setattr(cli, "generate_rir", recording)
    assert cli.main(["rir", "--out", str(tmp_path), "--count", "2", "--seed", "4"]) == 0
    capsys.readouterr()
    assert len(made) == 2
    for i, rir in enumerate(made):
        back = read_wav(tmp_path / f"rir{i:03d}.wav")
        assert back.sample_rate == rir.sample_rate
        assert back.samples.tobytes() == rir.taps.astype(np.float32).astype(np.float64).tobytes()
