"""The one-hop and the many-hop paths give the same bytes.

StreamingStft, StreamingIstft and KalmanAhs each take one hop per call or k
hops at once, through separate code.  A random split of one stream into
one-hop and k-hop pushes must give the bytes of one-hop pushes alone, solo
and with 1-3 rows, on silence, signed zeros, subnormals and magnitudes of
1e-150 and 1e150.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from howlkit.ahs import KalmanAhs
from howlkit.signals import StreamingIstft, StreamingStft
from test_ahs import TINY, TINY_SPEC, tiny_nets

_TINY = [0.0, -0.0, 5e-324, -5e-324]
_EDGE = st.one_of(st.sampled_from(_TINY + [2.2e-308, -1e-310, 1e-150, -1e-150, 1e150, -1e150]),
                  st.floats(-1.0, 1.0))


@st.composite
def streams(draw, per_hop):
    """(rows, samples): ``per_hop`` values per hop and row; rows None is a
    solo stream.  The samples are silence of either sign, signed zeros and
    smallest subnormals only (where the sign of a zero shows), or any of
    the edge values."""
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    hops = draw(st.integers(1, 30))
    shape = (hops, per_hop) if rows is None else (rows, hops, per_hop)
    kind = draw(st.sampled_from(["silence", "zeros", "edge"]))
    if kind == "silence":
        return rows, np.full(shape, draw(st.sampled_from([0.0, -0.0])))
    elements = st.sampled_from(_TINY) if kind == "zeros" else _EDGE
    return rows, draw(hnp.arrays(np.float64, shape, elements=elements))


@st.composite
def splits(draw, hops):
    """Chunk sizes of at most 12 hops summing to ``hops``."""
    sizes = []
    while sum(sizes) < hops:
        sizes.append(draw(st.integers(1, min(12, hops - sum(sizes)))))
    return sizes


def pieces(x, sizes):
    """The (..., k, per_hop) chunks of the (..., hops, per_hop) stream ``x``."""
    starts = np.cumsum([0] + sizes)
    return [x[..., a:b, :] for a, b in zip(starts[:-1], starts[1:])]


def as_bytes(chunks, axis):
    return np.concatenate(chunks, axis=axis).tobytes()


@settings(max_examples=40, deadline=None)
@given(streams(TINY.hop), st.data())
def test_stft_many_hop_pushes_equal_one_hop_pushes(stream, data):
    rows, x = stream
    hops = x.shape[-2]
    one = StreamingStft(TINY, rows)
    want = as_bytes([one.push(x[..., t, :])[..., None, :] for t in range(hops)], -2)
    many, got = StreamingStft(TINY, rows), []
    for chunk in pieces(x, data.draw(splits(hops))):
        if chunk.shape[-2] == 1 and data.draw(st.booleans()):
            got.append(many.push(chunk[..., 0, :])[..., None, :])  # the one-hop path
        else:
            got.append(many.push(chunk))
    assert as_bytes(got, -2) == want


@settings(max_examples=40, deadline=None)
@given(streams(2 * TINY.num_bins), st.data())
def test_istft_many_frame_pushes_equal_one_frame_pushes(stream, data):
    rows, parts = stream
    frames = parts[..., :TINY.num_bins] + 1j * parts[..., TINY.num_bins:]
    count = frames.shape[-2]
    one = StreamingIstft(TINY, rows)
    want = as_bytes([one.push(frames[..., t, :]) for t in range(count)], -1)
    many, got = StreamingIstft(TINY, rows), []
    for chunk in pieces(frames, data.draw(splits(count))):
        if chunk.shape[-2] == 1 and data.draw(st.booleans()):
            got.append(many.push(chunk[..., 0, :]))  # the one-frame path
        else:
            got.append(many.push(chunk))
    assert as_bytes(got, -1) == want


def outcome(ahs, y, sizes):
    """The bytes of ``ahs``'s outputs for ``y`` called in chunks of
    ``sizes`` hops, or the error it raised."""
    try:
        return as_bytes([ahs(chunk.reshape(chunk.shape[:-2] + (-1,)))
                         for chunk in pieces(y, sizes)], -1)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(streams(TINY.hop), st.data())
def test_suppressor_many_hop_calls_equal_one_hop_calls(stream, data):
    rows, y = stream
    count = 1 if rows is None else rows
    gains = data.draw(st.lists(st.sampled_from([0.0, 0.7, 1.3, 3.0]),
                               min_size=count, max_size=count))
    sats = data.draw(st.lists(st.sampled_from([1e-6, 0.5, 1.0, 1e6]),
                              min_size=count, max_size=count))
    # 1-7 hop spans, most delays off the hop grid
    delays = data.draw(st.lists(st.integers(TINY.hop, 60), min_size=count, max_size=count))
    nets = tiny_nets() if data.draw(st.booleans()) else {}
    args = (gains[0], delays[0], sats[0]) if rows is None else (
        tuple(gains), tuple(delays), tuple(sats))

    def run(sizes):
        return outcome(KalmanAhs(*args, spec=TINY_SPEC, **nets), y, sizes)

    hops = y.shape[-2]
    assert run(data.draw(splits(hops))) == run([1] * hops)
