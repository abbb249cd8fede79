"""The benchmark's workloads: their inputs, one round of operations, checks.

Every workload drives howlkit through its library API only: SceneSampler,
make_default_nets, KalmanAhs.for_scene, ClosedLoop.step_frame, evaluate and
train (plus run_scene for one recomputed eval row).  Library names are looked
up on their modules at call time, so a traced run sees its wrappers.

A round is a fixed list of operations; a run repeats whole rounds.  Inputs
depend on the seed only.  The checks compare with the plain-numpy
references in ``reference.py`` within stated tolerances, never bitwise.
"""

import copy
import math
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

import howlkit
from howlkit import loop as hk_loop
from howlkit import training as hk_training

from reference import delayed, fft_convolve, lsd_db, replay_suppressor, sdr_db
from tracer import label_nets

HOP = 64
FS = 16000
DEFAULT_GAIN = 2.0
EVAL_GAINS = (1.5, 2.0, 2.5, 3.0)


class HopTimer:
    """Thin wrapper handed to ClosedLoop in place of the suppressor: it
    times every call and exposes the suppressor's ``latency``."""

    def __init__(self, ahs, sink):
        self.ahs = ahs
        self.latency = ahs.latency
        self.sink = sink

    def __call__(self, frame):
        t0 = time.perf_counter_ns()
        out = self.ahs(frame)
        self.sink.append(time.perf_counter_ns() - t0)
        return out


def advance(engines, chunk):
    """Step each closed loop in turn by up to ``chunk`` hops.  The machine's
    speed drifts over seconds, so alternating lets every stream's hops sample
    the same stretch of time."""
    for e in engines:
        for _ in range(min(chunk, e.total_frames - e.frames_done)):
            e.step_frame()


def _finite(*arrays):
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _report_error(what):
    print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr, flush=True)


class Checks:
    """Named pass/fail results with the measured value behind each."""

    def __init__(self):
        self.items = []
        self.notes = {}

    def add(self, name, ok, detail):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def note(self, name, value):
        """Record a figure worth reporting that is not a pass/fail check."""
        self.notes[name] = value

    @property
    def ok(self):
        return all(c["ok"] for c in self.items)


def neural_ahs(scene, nets):
    return howlkit.KalmanAhs.for_scene(scene, mask_net=nets["mask"], vv_net=nets["vv"],
                                       dd_net=nets["dd"])


class HopProbe:
    """Hop latencies of both suppressors on short live streams.

    Used by the workloads whose own operations do not hand a suppressor to
    a loop the benchmark drives, so every workload reports the hop metrics.
    The classical and neural streams advance alternately in ``CHUNK``-hop
    chunks; each ``run`` call streams for a slice of wall time and the next
    call resumes where it stopped, so slices run between the workload's
    rounds sample the whole run.
    """

    SECONDS = 4.0
    CHUNK = 100

    def __init__(self, seed):
        self.seed = seed
        self.hops = {"kalman": [], "neural": []}
        self.engines = []

    def _restart(self):
        if not self.engines:
            self.scene = howlkit.SceneSampler(seed=self.seed, split="test", duration=self.SECONDS).scene(
                0, gain=DEFAULT_GAIN)
            self.nets = hk_training.make_default_nets(seed=self.seed)
        scene = self.scene
        self.engines = [
            hk_loop.ClosedLoop(scene, HopTimer(howlkit.KalmanAhs.for_scene(scene), self.hops["kalman"])),
            hk_loop.ClosedLoop(scene, HopTimer(neural_ahs(scene, self.nets), self.hops["neural"])),
        ]

    def run(self, seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            if not self.engines or self.engines[0].frames_done == self.engines[0].total_frames:
                self._restart()
            advance(self.engines, self.CHUNK)


class Live:
    """One long test scene streamed hop by hop, classical and neural."""

    SCENE = 0
    SECONDS = 20.0
    REPLAY_HOPS = 250
    CHUNK = 250
    VARIANTS = ("kalman", "neural")

    def __init__(self, seed):
        self.seed = seed
        self.hops = {v: [] for v in self.VARIANTS}

    def build(self):
        self.scene = howlkit.SceneSampler(seed=self.seed, split="test", duration=self.SECONDS).scene(
            self.SCENE, gain=DEFAULT_GAIN)
        self.nets = label_nets(hk_training.make_default_nets(seed=self.seed))

    def run_round(self):
        """Both variant streams, advanced alternately in one-second chunks."""
        self.results = {}
        try:
            ahs = {"kalman": howlkit.KalmanAhs.for_scene(self.scene),
                   "neural": neural_ahs(self.scene, self.nets)}
            engines = {v: hk_loop.ClosedLoop(self.scene, HopTimer(ahs[v], self.hops[v]))
                       for v in self.VARIANTS}
            while engines["kalman"].frames_done < engines["kalman"].total_frames:
                advance([engines[v] for v in self.VARIANTS], self.CHUNK)
        except Exception:
            _report_error("live streams")
            return {"attempted": len(self.VARIANTS), "failed": len(self.VARIANTS),
                    "audio_s": 0.0, "clamp_hits": 0}
        failed, audio_s = 0, 0.0
        for v in self.VARIANTS:
            res = engines[v].result()
            if _finite(res.s_hat, res.x, res.y):
                self.results[v] = res
                audio_s += len(res.s_hat) / FS
            else:
                failed += 1
        return {"attempted": len(self.VARIANTS), "failed": failed, "audio_s": audio_s,
                "clamp_hits": sum(a.filt.clamp_count for a in ahs.values())}

    def check(self, checks):
        scene = self.scene
        fcfg = howlkit.FdkfConfig()
        for variant, res in self.results.items():
            n = len(res.s_hat)
            x_del = delayed(res.x, scene.delay_samples)
            d_ref = fft_convolve(x_del, scene.feedback_rir.taps, n)
            err = np.max(np.abs(res.d - d_ref)) / max(np.max(np.abs(d_ref)), 1e-12)
            checks.add(f"live.{variant}.d_is_delayed_x_through_feedback_path", err < 1e-9, err)
            err = np.max(np.abs(res.y - (res.s + res.d)))
            checks.add(f"live.{variant}.y_is_s_plus_d", err < 1e-12, err)
            x_ref = np.clip(scene.gain * res.s_hat, -scene.sat, scene.sat)
            err = np.max(np.abs(res.x - x_ref))
            checks.add(f"live.{variant}.x_is_clipped_gain_times_s_hat", err < 1e-12, err)
            s_ref = fft_convolve(scene.near_end.samples, scene.near_rir.taps, n)
            err = np.max(np.abs(res.s - s_ref)) / max(np.max(np.abs(s_ref)), 1e-12)
            checks.add(f"live.{variant}.s_is_source_through_near_rir", err < 1e-9, err)
            nets = self.nets if variant == "neural" else None
            ref = replay_suppressor(res.y, x_del, self.REPLAY_HOPS, fcfg, nets=nets)
            got = res.s_hat[: len(ref)]
            err = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-12)
            checks.add(f"live.{variant}.s_hat_matches_reference_suppressor", err < 1e-8, err)
        for variant, res in self.results.items():
            aligned = np.concatenate([res.s_hat[res.ahs_latency:], np.zeros(res.ahs_latency)])
            checks.note(f"{variant}_howl_s", None if res.howl_event is None else res.howl_event / FS)
            checks.note(f"{variant}_sdr_db", sdr_db(res.s, aligned))


class EvalSweep:
    """evaluate() over short test scenes x {none, kalman} x four gains."""

    SCENES = 3
    SECONDS = 2.0

    def __init__(self, seed):
        self.seed = seed

    def build(self):
        self.scenes = howlkit.SceneSampler(seed=self.seed, split="test", duration=self.SECONDS).scenes(
            self.SCENES)

    def _kalman(self, scene):
        ahs = howlkit.KalmanAhs.for_scene(scene)
        self._built.append(ahs)
        return ahs

    def run_round(self):
        self._built = []
        variants = {"none": lambda scene: howlkit.IdentityAhs(), "kalman": self._kalman}
        attempted = len(variants) * len(EVAL_GAINS) * self.SCENES
        self.rows = []
        try:
            report = howlkit.evaluate(self.scenes, variants, gains=EVAL_GAINS)
        except Exception:
            _report_error("evaluate")
            return {"attempted": attempted, "failed": attempted, "audio_s": 0.0, "clamp_hits": 0}
        good = [r for r in report.rows if math.isfinite(r.sdr) and math.isfinite(r.lsd)]
        self.rows = list(report.rows)
        return {"attempted": attempted, "failed": attempted - len(good),
                "audio_s": len(good) * self.SECONDS,
                "clamp_hits": sum(a.filt.clamp_count for a in self._built)}

    def check(self, checks):
        rows = self.rows
        expect = 2 * len(EVAL_GAINS) * self.SCENES
        checks.add("eval.row_count", len(rows) == expect, len(rows))
        checks.add("eval.all_finite", all(math.isfinite(r.sdr) and math.isfinite(r.lsd) for r in rows),
                   None)
        couplings = [float(np.sum(s.feedback_rir.taps)) for s in self.scenes]
        for gain in EVAL_GAINS:
            none = [r for r in rows if r.variant == "none" and r.gain == gain]
            rate = sum(r.howled for r in none) / max(len(none), 1)
            checks.add(f"eval.none_howls_at_gain_{gain:g}", rate >= 0.9, rate)
            loop_gain = min(gain * c for c in couplings)
            checks.add(f"eval.dc_loop_gain_at_least_3_at_gain_{gain:g}", loop_gain >= 3.0, loop_gain)

        def mean_sdr(variant):
            vals = [r.sdr for r in rows if r.variant == variant and r.gain == 1.5]
            return float(np.mean(vals)) if vals else float("nan")

        margin = mean_sdr("kalman") - mean_sdr("none")
        checks.add("eval.kalman_beats_none_by_15db_at_gain_1.5", margin >= 15.0, margin)

        row = next((r for r in rows if r.variant == "kalman" and r.gain == DEFAULT_GAIN
                    and r.scene_id == 0), None)
        if row is None:
            checks.add("eval.row_recomputed", False, "row missing")
            return
        scene = replace(self.scenes[0], gain=DEFAULT_GAIN)
        res = howlkit.run_scene(scene, howlkit.KalmanAhs.for_scene(scene))
        lat = res.ahs_latency
        aligned = np.concatenate([res.s_hat[lat:], np.zeros(lat)])
        s_err = abs(sdr_db(res.s, aligned) - row.sdr)
        l_err = abs(lsd_db(res.s, aligned) - row.lsd)
        checks.add("eval.row_sdr_recomputed", s_err < 1e-9, s_err)
        checks.add("eval.row_lsd_recomputed", l_err < 1e-9, l_err)


class Train:
    """train() for one epoch of one batch of eight train scenes."""

    SCENES = 8
    SECONDS = 2.0
    GRAD_HOPS = 24
    GRAD_COORDS = 4

    def __init__(self, seed):
        self.seed = seed

    def build(self):
        self.initial = label_nets(hk_training.make_default_nets(seed=self.seed))
        self.sampler = howlkit.SceneSampler(seed=self.seed, split="train", duration=self.SECONDS)
        self.cfg = howlkit.TrainConfig(epochs=1, batch_size=self.SCENES, scenes_per_epoch=self.SCENES,
                                       duration=self.SECONDS, seed=self.seed, validation_scenes=0)

    def run_round(self):
        nets = copy.deepcopy(self.initial)
        self.nets, self.events = None, []
        try:
            nets, events = howlkit.train(nets, self.sampler, self.cfg)
        except Exception:
            _report_error("train")
            return {"attempted": self.SCENES, "failed": self.SCENES, "audio_s": 0.0,
                    "clamp_hits": 0, "howl_aborts": 0, "frames": 0}
        self.nets, self.events = nets, events
        good = [e for e in events if e.nan_events == 0 and math.isfinite(e.loss)]
        return {"attempted": self.SCENES, "failed": self.SCENES - len(good),
                "audio_s": sum(e.frames for e in good) * HOP / FS,
                "clamp_hits": sum(e.clamp_events for e in events),
                "howl_aborts": sum(e.howl_abort for e in events),
                "frames": sum(e.frames for e in events)}

    def check(self, checks):
        events = self.events
        checks.add("train.one_event_per_scene", len(events) == self.SCENES, len(events))
        checks.add("train.no_nan_events", all(e.nan_events == 0 for e in events),
                   sum(e.nan_events for e in events))
        checks.add("train.losses_finite", all(math.isfinite(e.loss) for e in events), None)
        if self.nets is not None:
            finite = all(_finite(p) for net in self.nets.values() for p in net.params.values())
            changed = sum(float(np.max(np.abs(net.params[k] - self.initial[name].params[k])))
                          for name, net in self.nets.items() for k in net.params)
            checks.add("train.weights_finite", finite, None)
            checks.add("train.weights_changed", changed > 0.0, changed)
        for name, worst in self.grad_check().items():
            checks.add(f"train.window_grad_matches_finite_difference.{name}", worst < 1e-4, worst)

    def grad_check(self, step=1e-6):
        """Window gradients from KalmanAhs.end_window against central finite
        differences of the same window loss, on fixed hops.

        The window covers every hop the fresh processor sees, so the
        truncated gradient is the exact gradient of the loss and the two
        must agree to rounding.  Returns the worst relative error per net.
        """
        rng = np.random.default_rng([self.seed, 7])
        n = self.GRAD_HOPS * HOP
        x = 0.3 * rng.standard_normal(n)
        path = 0.5 * rng.standard_normal(96) * np.exp(-np.arange(96) / 24.0)
        y = 0.2 * rng.standard_normal(n) + fft_convolve(x, path, n)
        targets = np.abs(rng.standard_normal((self.GRAD_HOPS, HOP + 1)))
        scene = self.sampler.scene(0, gain=DEFAULT_GAIN)
        nets = copy.deepcopy(self.initial)

        def window_loss(want_grads):
            ahs = neural_ahs(scene, nets)
            ahs.begin_window()
            for t in range(self.GRAD_HOPS):
                ahs.step_open(y[t * HOP:(t + 1) * HOP], x[t * HOP:(t + 1) * HOP])
            return ahs.end_window(targets, want_grads=want_grads)

        _, grads = window_loss(True)
        worst = {}
        for name in ("mask", "vv", "dd"):
            keys = sorted(grads[name])
            flat = np.concatenate([grads[name][k].ravel() for k in keys])
            big = np.nonzero(np.abs(flat) >= 1e-2 * np.max(np.abs(flat)))[0]
            picks = rng.choice(big, size=min(self.GRAD_COORDS, len(big)), replace=False)
            sizes = np.cumsum([grads[name][k].size for k in keys])
            errs = []
            for j in picks:
                slot = int(np.searchsorted(sizes, j, side="right"))
                key, off = keys[slot], j - (sizes[slot - 1] if slot else 0)
                param = nets[name].params[key].reshape(-1)
                keep = param[off]
                param[off] = keep + step
                up, _ = window_loss(False)
                param[off] = keep - step
                down, _ = window_loss(False)
                param[off] = keep
                numeric = (up - down) / (2.0 * step)
                analytic = flat[j]
                errs.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
            worst[name] = max(errs)
        return worst


WORKLOADS = {"live": Live, "eval-sweep": EvalSweep, "train": Train}
