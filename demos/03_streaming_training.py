"""
Training the neural helpers inside the loop
===========================================

The classical filter guesses its two noise covariances from running signal
statistics, and it trusts the raw loudspeaker signal as its reference.  Three
small recurrent networks can do better: one masks the reference, two predict
the covariances.  They are trained *in the loop* — every forward pass runs
the whole suppressor inside a live feedback simulation, so the networks learn
under the same dynamics they will face at inference, hard clipping, howling
risk and all.

This is a miniature run (seconds); the package-level defaults train longer
on more scenes.
"""

import dataclasses
import os
import time

from howlkit import (
    KalmanAhs,
    SceneSampler,
    TrainConfig,
    run_scene,
    sdr,
    train,
)
from howlkit.training import make_default_nets

OUT = os.path.join(os.path.dirname(__file__), "out", "03_streaming_training")
os.makedirs(OUT, exist_ok=True)

# Small everything: short scenes, few epochs, narrow networks.
cfg = TrainConfig(epochs=3, scenes_per_epoch=8, batch_size=4, duration=2.0,
                  lr=1e-3, lr_decay=0.6, validation_scenes=2)
nets = make_default_nets(num_bins=65, mask_hidden=(16,), seed=0)
sampler = SceneSampler(seed=cfg.seed, split="train", duration=cfg.duration)
val_sampler = SceneSampler(seed=17, split="test", duration=2.0)

t0 = time.time()
nets, events = train(nets, sampler, cfg, val_sampler=val_sampler,
                     log_path=os.path.join(OUT, "train_log.jsonl"),
                     checkpoint_dir=OUT)
print(f"trained {len(events)} scenes in {time.time() - t0:.0f} s")

# The loss is the per-window L1 distance between the suppressor's output
# spectrum and the clean near-end spectrum.  Scenes that howl mid-window are
# aborted: their half-finished window is discarded rather than backpropagated.
per_epoch = {}
for e in events:
    per_epoch.setdefault(e.epoch, []).append(e.loss)
for epoch, losses in sorted(per_epoch.items()):
    bar = "#" * int(80 * sum(losses) / len(losses))
    print(f"epoch {epoch}: mean loss {sum(losses) / len(losses):.4f} {bar}")
aborts = sum(1 for e in events if e.howl_abort)
print(f"howl aborts during training: {aborts}")

# ---------------------------------------------------------------------------
# Side-by-side on held-out scenes: classical covariances vs learned ones.
test = SceneSampler(seed=0, split="test", duration=2.0)
print("\nheld-out scenes at loop gain 2.0   classical      neural")
cls_scores, net_scores = [], []
for i in range(4):
    scene = dataclasses.replace(test.scene(i), gain=2.0)
    classical = run_scene(scene, KalmanAhs.for_scene(scene))
    neural = run_scene(scene, KalmanAhs.for_scene(
        scene, mask_net=nets["mask"], vv_net=nets["vv"], dd_net=nets["dd"]))
    cls_scores.append(sdr(scene.target(), classical.s_hat_aligned()))
    net_scores.append(sdr(scene.target(), neural.s_hat_aligned()))
    print("  scene %d                         %+7.2f dB   %+7.2f dB" % (
        i, cls_scores[-1], net_scores[-1]))

# At this miniature scale the networks have not caught the classical filter's
# mean yet — but look at the spread.  The classical filter's quality swings
# room to room; the learned covariances already deliver nearly the same
# output quality in every room.  Longer training (the package defaults) keeps
# the narrow spread and pushes the mean past the classical filter.
mean = lambda v: sum(v) / len(v)
spread = lambda v: (mean([x * x for x in v]) - mean(v) ** 2) ** 0.5
print("  mean +/- spread                  %+7.2f+/-%.2f  %+7.2f+/-%.2f" % (
    mean(cls_scores), spread(cls_scores), mean(net_scores), spread(net_scores)))
print(f"\ncheckpoints and log in {OUT}")
