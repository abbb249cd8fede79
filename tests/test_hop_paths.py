"""The one-hop and the many-hop paths give the same bytes.

StreamingStft, StreamingIstft and KalmanAhs each take one hop per call or k
hops at once, through separate code.  A random split of one stream into
one-hop and k-hop pushes must give the bytes of one-hop pushes alone, solo
and with 1-3 rows, on silence, signed zeros, subnormals and magnitudes of
1e-150 and 1e150.  ClosedLoop, stepped k frames or a whole span at a time
and cut midway, must give each row the bytes of the per-hop loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from howlkit.ahs import KalmanAhs
from howlkit.loop import ClosedLoop, HowlDetectorConfig, IdentityAhs, LoopScene
from howlkit.rooms import Rir
from howlkit.signals import StreamingIstft, StreamingStft, TimeSignal
from oracles import per_hop_closed_loop
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


# ------------------------------------------------------------ the closed loop
# ClosedLoop stepped k frames or a whole span at a time, with a cut of its
# stack midway, against the plain per-hop loop of each row alone.

FS = 16000


def assert_row_matches(row, ref, upto=None):
    """One row of a loop run is the per-hop loop's, cut at ``upto``."""
    y, d, s_hat, x, howl = ref
    assert row.howl_event == (howl if howl is None or upto is None or howl < upto else None)
    # where lfilter gives -0.0 the feedback path gives +0.0 (see StreamingConvolver)
    assert (row.d + 0.0).tobytes() == (d[:upto] + 0.0).tobytes()
    for name, want in (("y", y), ("s_hat", s_hat), ("x", x)):
        assert getattr(row, name).tobytes() == want[:upto].tobytes(), name


def loud_runs(s_hat, det):
    """Per sample, the length of the loud run it ends (0 when quiet)."""
    run, runs = 0, []
    for v in s_hat.tolist():
        run = run + 1 if abs(v) > det.amp_threshold else 0
        runs.append(run)
    return np.array(runs, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_loop_steps_of_any_size_equal_the_per_hop_loop(data):
    rows = data.draw(st.sampled_from([None, 1, 2, 3]), label="rows")
    count = 1 if rows is None else rows
    kalman = data.draw(st.booleans(), label="kalman")
    nets = tiny_nets() if kalman and data.draw(st.booleans(), label="nets") else {}
    frame = TINY.hop if kalman else data.draw(st.sampled_from([1, 5, 8, 13]), label="frame")
    n = data.draw(st.integers(frame, 400), label="samples")
    silent = data.draw(st.booleans(), label="silent")
    # a low threshold keeps loud runs open across steps and cuts
    det = HowlDetectorConfig(data.draw(st.sampled_from([0.05, 0.2]), label="threshold"),
                             data.draw(st.integers(1, 20), label="run length"))
    scenes = []
    for row in range(count):
        rng = np.random.default_rng([n, row])
        near = np.zeros(n) if silent else 0.3 * rng.standard_normal(n)
        taps = 0.5 * rng.standard_normal(data.draw(st.integers(1, 40)))
        scenes.append(LoopScene(
            TimeSignal(near, FS), Rir(taps, FS),
            gain=data.draw(st.sampled_from([0.0, 0.7, 1.5, 3.0]), label="gain"),
            # one frame or more, most of them off the hop grid
            delay=data.draw(st.integers(frame, 60), label="delay") / FS,
            sat=data.draw(st.sampled_from([1e-6, 0.5, 1.0, 1e6]), label="sat")))

    def suppressor(scene):
        if not kalman:
            return IdentityAhs()
        return KalmanAhs.for_scene(scene, spec=TINY_SPEC, **nets)

    stack = scenes[0] if rows is None else scenes
    engine = ClosedLoop(stack, suppressor(stack), det=det, frame_size=frame)
    cut_at = data.draw(st.integers(0, 8), label="cut after step") if rows else None
    kept, head, steps = list(range(count)), None, []
    while engine.frames_done < engine.total_frames:
        if len(steps) == cut_at:
            head = engine.result(), engine.frames_done * frame
            kept = data.draw(st.permutations(range(count)), label="order")
            kept = kept[:data.draw(st.integers(1, count), label="kept")]
            engine.keep(kept)
        start = engine.frames_done * frame
        howled = engine.step(data.draw(st.one_of(st.none(), st.integers(1, 12)), label="k"))
        steps.append((start, engine.frames_done * frame, howled, list(kept)))

    refs = [per_hop_closed_loop(sc.target(), sc.feedback_rir.taps, sc.gain, sc.delay_samples,
                                sc.sat, suppressor(sc), frame, det.amp_threshold,
                                det.run_length) for sc in scenes]
    if head is not None:
        for row, ref in zip(head[0], refs):
            assert_row_matches(row, ref, upto=head[1])
    for row, r in zip(np.atleast_1d(engine.result()), kept):
        assert_row_matches(row, refs[r])
    # a step reports howling when a loud run is past run_length in any of its rows
    runs = [loud_runs(ref[2], det) for ref in refs]
    for start, end, howled, live in steps:
        assert howled == any((runs[r][start:end] > det.run_length).any() for r in live)
