"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE n: PASS/FAIL — detail`` (visible with -s, or in
the captured output of a failure) and asserts both the numeric criterion and
its runtime budget.  Criteria 8 and 9 share one desk-scale training run via a
module fixture, so this file takes about twenty minutes end to end; both are
marked ``slow``, and ``pytest -m "not slow"`` leaves them (and the fixture) out.
"""

import dataclasses
import time

import numpy as np
import pytest

from howlkit.ahs import KalmanAhs
from howlkit.cli import main as cli_main
from howlkit.fdkf import ClassicalCovariances, CovariancePair, FdkfConfig, KalmanFilter
from howlkit.loop import IdentityAhs, run_scene
from howlkit.metrics import sdr
from howlkit.nets import grad_check, make_cov_dd_net, make_cov_vv_net, make_mask_net
from howlkit.rooms import Rir, StreamingConvolver, convolve_batch
from howlkit.signals import StftConfig, TimeSignal, istft, stft
from howlkit.training import SceneSampler, TrainConfig, make_default_nets, train
from helpers import train_scene
from oracles import dense_kalman_run

FS = 16000


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def scenes20():
    """Twenty held-out scene templates shared by criteria 6, 7 and 9."""
    sampler = SceneSampler(seed=0, split="test", duration=4.0)
    return sampler.scenes(20)


def run_variant(scenes, gain, factory):
    """SDR per scene plus howl events for one suppressor at one loop gain."""
    sdrs, howls = [], []
    for scene in scenes:
        swept = dataclasses.replace(scene, gain=float(gain))
        res = run_scene(swept, factory(swept))
        sdrs.append(sdr(swept.target(), res.s_hat_aligned()))
        howls.append(res.howl_event)
    return np.array(sdrs), howls


@pytest.fixture(scope="module")
def desk_training(tmp_path_factory):
    """One desk-scale training run shared by criteria 8 and 9."""
    out = tmp_path_factory.mktemp("desk")
    cfg = TrainConfig(epochs=10, scenes_per_epoch=32, batch_size=8,
                      duration=4.0, seed=0, lr=1e-3, lr_decay=0.6,
                      validation_scenes=8)
    nets = make_default_nets(65, mask_hidden=(32, 32), seed=0)
    sampler = SceneSampler(seed=0, split="train", duration=4.0)
    # validation pool under a shifted seed so the 20 evaluation scenes
    # (seed 0, test split) stay genuinely held out
    val_sampler = SceneSampler(seed=17, split="test", duration=4.0)
    t0 = time.monotonic()
    nets, events = train(nets, sampler, cfg, val_sampler=val_sampler,
                         log_path=str(out / "train_log.jsonl"),
                         checkpoint_dir=str(out))
    elapsed = time.monotonic() - t0
    return nets, events, elapsed


def test_criterion_01_stft_round_trip():
    t0 = time.monotonic()
    cfg = StftConfig()
    x = np.random.default_rng(0).standard_normal(FS)
    back = istft(stft(TimeSignal(x, FS), cfg), cfg).samples
    n = min(len(back), len(x))
    lo, hi = cfg.hop, (n // cfg.hop) * cfg.hop - cfg.frame_len
    err = np.max(np.abs(back[lo:hi] - x[lo:hi])) / np.max(np.abs(x[lo:hi]))
    elapsed = time.monotonic() - t0
    ok = err < 1e-10 and elapsed < 1.0
    report(1, ok, f"round-trip interior rel err {err:.2e} ({elapsed:.2f} s)")
    assert err < 1e-10
    assert elapsed < 1.0


def test_criterion_02_streaming_convolution_bit_exact():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    exact = 0
    for _ in range(100):
        n = int(rng.integers(200, 2000))
        x = rng.standard_normal(n)
        taps = rng.standard_normal(int(rng.integers(1, 257)))
        conv = StreamingConvolver(Rir(taps, FS))
        cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 8))))
        pieces = np.split(x, cuts)
        streamed = np.concatenate([conv.process(p) for p in pieces])
        exact += np.array_equal(streamed, convolve_batch(x, taps))
    elapsed = time.monotonic() - t0
    ok = exact == 100 and elapsed < 5.0
    report(2, ok, f"{exact}/100 random triples bit-exact ({elapsed:.2f} s)")
    assert exact == 100
    assert elapsed < 5.0


def test_criterion_03_fdkf_matches_dense_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for L in (1, 2):
        cfg = FdkfConfig(num_taps=L, eps=0.0)
        filt = KalmanFilter(cfg, 4)
        psi_vv, psi_dd = 0.3, 0.004
        cov = CovariancePair(np.full(4, psi_vv), np.full((4, L), psi_dd))
        Y = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        X = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        if L == 2:
            # one active tap per frame keeps the dense covariance diagonal,
            # the regime where the per-tap recursion is exact
            X[1::2] = 0.0
        traj = np.zeros((50, 4, L), dtype=np.complex128)
        for k in range(50):
            filt.push_reference(X[k])
            s_hat = filt.predict(Y[k])
            filt.update(filt.gain(cov), s_hat, cov)
            traj[k] = filt.W
        for b in range(4):
            oracle = dense_kalman_run(Y[:, b], X[:, b], L, psi_vv, psi_dd,
                                      cfg.A, cfg.alpha, cfg.p_init)
            denom = np.abs(oracle) + 1e-12
            worst = max(worst, float(np.max(np.abs(traj[:, b] - oracle) / denom)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(3, ok, f"worst relative W error vs dense oracle {worst:.2e} ({elapsed:.2f} s)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_04_covariance_positivity_100k_steps():
    t0 = time.monotonic()
    cfg = FdkfConfig(num_taps=2)
    filt = KalmanFilter(cfg, 4)
    classical = ClassicalCovariances(cfg, 4)
    rng = np.random.default_rng(3)
    min_p = min_vv = min_dd = np.inf
    finite = True
    for step in range(100_000):
        scale = 10.0 ** rng.uniform(-3, 3)
        X = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        Y = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        filt.push_reference(X)
        s_hat = filt.predict(Y)
        if step % 2:
            cov = classical(s_hat, filt)
        else:  # adversarial random covariances, as a learned source would emit
            cov = CovariancePair(10.0 ** rng.uniform(-8, 2, 4),
                                 10.0 ** rng.uniform(-8, 2, (4, 2)))
        filt.update(filt.gain(cov), s_hat, cov)
        min_p = min(min_p, float(filt.P.min()))
        min_vv = min(min_vv, float(cov.psi_vv.min()))
        min_dd = min(min_dd, float(cov.psi_dd.min()))
        if step % 1000 == 0:
            finite &= bool(np.all(np.isfinite(filt.W)) and np.all(np.isfinite(filt.P)))
    finite &= bool(np.all(np.isfinite(filt.W)) and np.all(np.isfinite(filt.P)))
    elapsed = time.monotonic() - t0
    ok = min_p >= 0 and min_vv >= 0 and min_dd >= 0 and finite and elapsed < 30.0
    report(4, ok, f"min P {min_p:.1e}, min vv {min_vv:.1e}, min dd {min_dd:.1e}, "
                  f"finite={finite} over 1e5 steps ({elapsed:.1f} s)")
    assert min_p >= 0 and min_vv >= 0 and min_dd >= 0
    assert finite
    assert elapsed < 30.0


def test_criterion_05_gradient_check():
    t0 = time.monotonic()
    nets = {
        "mask 16x16": make_mask_net(4, hidden=(16, 16), seed=4),
        "cov vv": make_cov_vv_net(16, seed=5),
        "cov dd": make_cov_dd_net(16, seed=6),
    }
    worst = {}
    for name, net in nets.items():
        worst[name] = max(grad_check(net, T=8, seed=7).values())
    elapsed = time.monotonic() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(5, ok, f"BPTT vs finite differences: {detail} ({elapsed:.1f} s)")
    assert peak < 1e-4
    assert elapsed < 60.0


def test_criterion_06_howling_emerges(scenes20):
    t0 = time.monotonic()
    sdrs, howls = run_variant(scenes20, 2.0, lambda sc: IdentityAhs())
    fired = sum(1 for ev in howls if ev is not None and ev <= 2 * FS)
    elapsed = time.monotonic() - t0
    ok = fired >= 18 and sdrs.mean() < -15.0 and elapsed < 120.0
    report(6, ok, f"howl within 2 s in {fired}/20 scenes, mean SDR "
                  f"{sdrs.mean():+.2f} dB ({elapsed:.1f} s)")
    assert fired >= 18
    assert sdrs.mean() < -15.0
    assert elapsed < 120.0


def test_criterion_07_classical_fdkf_suppresses(scenes20):
    t0 = time.monotonic()
    ident, _ = run_variant(scenes20, 1.5, lambda sc: IdentityAhs())
    kalman, _ = run_variant(scenes20, 1.5, lambda sc: KalmanAhs.for_scene(sc))
    gap = kalman.mean() - ident.mean()
    elapsed = time.monotonic() - t0
    ok = gap >= 15.0 and elapsed < 300.0
    report(7, ok, f"FDKF {kalman.mean():+.2f} dB vs identity {ident.mean():+.2f} dB, "
                  f"gap {gap:.2f} dB ({elapsed:.1f} s)")
    assert gap >= 15.0
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_08_training_abort_guard(desk_training, monkeypatch):
    t0 = time.monotonic()
    nets_trained, events, train_elapsed = desk_training
    nans = sum(e.nan_events for e in events)

    # Abort-guard half: the loop must actually howl for a scene to abort, and
    # a fresh mask crushes loop energy within a few frames; route the raw
    # microphone signal back to the loudspeaker while the suppressor sees the
    # same samples, so howling builds and the guard fires.
    real_call = KalmanAhs.__call__

    def passthrough(self, y_chunk):
        real_call(self, y_chunk)
        return np.asarray(y_chunk, dtype=np.float64).copy()

    monkeypatch.setattr(KalmanAhs, "__call__", passthrough)
    sampler = SceneSampler(seed=11, split="train", duration=1.2)
    cfg = TrainConfig(duration=1.2)
    hop = StftConfig().hop
    aborted = guarded = 0
    for i in range(3):
        scene = sampler.scene(i, gain=3.0)
        nets = make_default_nets(65, mask_hidden=(8,), seed=i)
        init = {n: {k: v.copy() for k, v in nets[n].params.items()} for n in nets}
        nets, event = train_scene(nets, scene, cfg)
        if not event.howl_abort:
            continue
        aborted += 1
        closed = (event.frames - 1) // cfg.t_bptt
        if closed == 0:
            # nothing committed: weights must be untouched
            guarded += all(np.array_equal(nets[n].params[k], init[n][k])
                           for n in nets for k in nets[n].params)
            continue
        # weights must equal training on just the committed windows, i.e. the
        # aborted window contributed nothing
        twin_scene = dataclasses.replace(
            scene, near_end=TimeSignal(
                scene.near_end.samples[: closed * cfg.t_bptt * hop], FS))
        twin = make_default_nets(65, mask_hidden=(8,), seed=i)
        twin, twin_event = train_scene(twin, twin_scene, cfg)
        guarded += (not twin_event.howl_abort) and all(
            np.array_equal(nets[n].params[k], twin[n].params[k])
            for n in nets for k in nets[n].params)
    elapsed = time.monotonic() - t0
    ok = (aborted == 3 and guarded == 3 and nans == 0 and len(events) == 320
          and train_elapsed < 1800.0)
    report(8, ok, f"{guarded}/{aborted} aborts bit-clean at G=3; desk training "
                  f"{len(events)} scenes, {nans} non-finite steps "
                  f"({train_elapsed:.0f} s train + {elapsed:.0f} s guard)")
    assert aborted == 3, "abort guard never exercised"
    assert guarded == 3
    assert nans == 0
    assert len(events) == 320
    assert train_elapsed < 1800.0


@pytest.mark.slow
def test_criterion_09_neural_beats_classical(desk_training, scenes20):
    t0 = time.monotonic()
    nets, _, train_elapsed = desk_training
    classical, _ = run_variant(scenes20, 2.0, lambda sc: KalmanAhs.for_scene(sc))
    neural, _ = run_variant(
        scenes20, 2.0,
        lambda sc: KalmanAhs.for_scene(sc, mask_net=nets["mask"],
                                       vv_net=nets["vv"], dd_net=nets["dd"]))
    elapsed = time.monotonic() - t0
    total = train_elapsed + elapsed
    ok = (neural.mean() > classical.mean()
          and neural.std() < classical.std() and total < 2700.0)
    report(9, ok, f"neural {neural.mean():+.2f}±{neural.std():.2f} dB vs classical "
                  f"{classical.mean():+.2f}±{classical.std():.2f} dB at G=2 "
                  f"({total:.0f} s total)")
    assert neural.mean() > classical.mean()
    assert neural.std() < classical.std()
    assert total < 2700.0


def test_criterion_10_ablation_wiring(tmp_path):
    t0 = time.monotonic()

    def suppress(out, *flags):
        args = ["suppress", "--synthetic", "--out", str(tmp_path / out),
                "--gain", "2", "--duration", "1.5"] + list(flags)
        assert cli_main(args) == 0
        with open(tmp_path / out / "scene_s_hat.wav", "rb") as f:
            return f.read()

    kalman = suppress("kal", "--variant", "kalman")
    full = suppress("full", "--variant", "neuralkalman")
    no_mask = suppress("nomask", "--variant", "neuralkalman", "--no-mask")
    no_cov = suppress("nocov", "--variant", "neuralkalman", "--no-cov")
    stripped = suppress("none", "--variant", "neuralkalman", "--no-mask", "--no-cov")
    elapsed = time.monotonic() - t0
    ok = (stripped == kalman and no_mask != full and no_cov != full
          and elapsed < 120.0)
    report(10, ok, f"stripped==kalman {stripped == kalman}, ablations distinct "
                   f"{no_mask != full and no_cov != full} ({elapsed:.1f} s)")
    assert stripped == kalman
    assert no_mask != full
    assert no_cov != full
    assert elapsed < 120.0
