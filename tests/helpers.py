"""Test helpers that drive the training loop's internals."""

from howlkit.training import _train_batch, make_optimizer


def train_scene(nets, scene, cfg, optimizer=None):
    """Train on one scene as a one-row batch; returns ``(nets, TrainEvent)``.

    The nets are updated in place, one optimizer step per completed window.
    """
    events = _train_batch(nets, [scene], cfg, optimizer or make_optimizer(cfg), epoch=0,
                          scene_ids=[f"scene:{scene.seed}"])
    return nets, events[0]
