"""Per-layer metrics computed from a traced run's spans.

Per-call values (``_us``, ``_ms``) are means over every span of that name in
the traced process, set-up included; ``_self_`` ones use the span's layer
self time (its duration minus the spans of other layers below it).  Counts,
``<layer>.self_s`` and the ``trace.*`` times are per timed round.  A value
whose span never ran on the workload reads 0.
"""

import numpy as np

from tracer import LAYERS

# metric: (span name, scale, unit, "dur" for inclusive or "self" for layer self time)
PER_CALL = {
    "signals.stft_push_us": ("signals.StreamingStft.push", 1e6, "us", "dur"),
    "signals.istft_push_us": ("signals.StreamingIstft.push", 1e6, "us", "dur"),
    "signals.stft_ms": ("signals.stft", 1e3, "ms", "dur"),
    "rooms.conv_process_us": ("rooms.StreamingConvolver.process", 1e6, "us", "dur"),
    "rooms.convolve_batch_ms": ("rooms.convolve_batch", 1e3, "ms", "dur"),
    "rooms.generate_rir_ms": ("rooms.generate_rir", 1e3, "ms", "dur"),
    "loop.step_frame_self_us": ("loop.ClosedLoop.step_frame", 1e6, "us", "self"),
    "loop.target_ms": ("loop.LoopScene.target", 1e3, "ms", "dur"),
    "fdkf.push_reference_us": ("fdkf.KalmanFilter.push_reference", 1e6, "us", "dur"),
    "fdkf.predict_us": ("fdkf.KalmanFilter.predict", 1e6, "us", "dur"),
    "fdkf.gain_us": ("fdkf.KalmanFilter.gain", 1e6, "us", "dur"),
    "fdkf.update_us": ("fdkf.KalmanFilter.update", 1e6, "us", "dur"),
    "fdkf.classical_cov_us": ("fdkf.ClassicalCovariances.__call__", 1e6, "us", "dur"),
    "fdkf.cov_pair_us": ("fdkf.CovariancePair.__init__", 1e6, "us", "dur"),
    "nets.mask_step_us": ("nets.LstmNet.step[mask]", 1e6, "us", "dur"),
    "nets.vv_step_us": ("nets.LstmNet.step[vv]", 1e6, "us", "dur"),
    "nets.dd_step_us": ("nets.LstmNet.step[dd]", 1e6, "us", "dur"),
    "nets.mask_step_back_us": ("nets.LstmNet.step_back[mask]", 1e6, "us", "dur"),
    "nets.vv_step_back_us": ("nets.LstmNet.step_back[vv]", 1e6, "us", "dur"),
    "nets.dd_step_back_us": ("nets.LstmNet.step_back[dd]", 1e6, "us", "dur"),
    "ahs.call_self_us": ("ahs.KalmanAhs.__call__", 1e6, "us", "self"),
    "ahs.end_window_self_ms": ("ahs.KalmanAhs.end_window", 1e3, "ms", "self"),
    "training.scene_ms": ("training.SceneSampler.scene", 1e3, "ms", "dur"),
    "training.synth_speech_ms": ("training.synth_speech", 1e3, "ms", "dur"),
    "training.optimizer_step_us": ("training.AdamOptimizer.step", 1e6, "us", "dur"),
    "metrics.sdr_us": ("metrics.sdr", 1e6, "us", "dur"),
    "metrics.lsd_ms": ("metrics.lsd", 1e3, "ms", "dur"),
}

# metric: span name counted per timed round
COUNTS = {
    "rooms.convolve_batch_calls": "rooms.convolve_batch",
    "loop.target_calls": "loop.LoopScene.target",
    "ahs.windows": "ahs.KalmanAhs.end_window",
    "training.optimizer_steps": "training.AdamOptimizer.step",
}


def per_layer(table, setup_mark, timed_mark, rounds, wall, base_round_s, span_cost_s,
              totals, import_s, inputs_s):
    """Returns ({metric: (value, unit)}, (check name, ok, detail))."""
    m = {"setup.import_s": (import_s, "s"), "setup.inputs_s": (inputs_s, "s")}
    for metric, (name, scale, unit, kind) in PER_CALL.items():
        idx = table.select(name, setup_mark)
        vals = table.dur[idx] if kind == "dur" else table.layer_self[idx]
        m[metric] = (float(np.mean(vals)) * scale if len(idx) else 0.0, unit)
    for metric, name in COUNTS.items():
        m[metric] = (len(table.select(name, timed_mark)) / rounds, "count")
    m["fdkf.clamp_hits"] = (totals["clamp_hits"] / rounds, "count")
    m["training.howl_aborts"] = (totals.get("howl_aborts", 0) / rounds, "count")
    frames = totals.get("frames", 0)
    committed = len(table.select("nets.LstmNet.step_back[mask]", timed_mark))
    m["training.committed_frame_ratio"] = (committed / frames if frames else 0.0, "ratio")

    timed = slice(timed_mark, None)
    layer_total = 0.0
    for i, layer in enumerate(LAYERS):
        self_s = float(np.sum(table.own[timed][table.layer[timed] == i])) / rounds
        m[f"{layer}.self_s"] = (self_s, "s")
        layer_total += self_s
    wall_round = wall / rounds
    unattributed = wall_round - layer_total
    span_cost = (table.count - timed_mark) / rounds * span_cost_s
    m["trace.wall_s"] = (wall_round, "s")
    m["trace.overhead_s"] = (wall_round - base_round_s, "s")
    m["trace.span_cost_s"] = (span_cost, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    check = ("trace.layer_self_times_add_up_to_wall", 0.0 <= unattributed <= span_cost,
             {"wall_s": wall_round, "layer_self_sum_s": layer_total, "span_cost_s": span_cost})
    return m, check
