"""Test helpers that drive the training loop's internals."""

from howlkit.training import AdamOptimizer, _train_batch


def train_scene(nets, scene, cfg, optimizer=None):
    """Train on one scene as a one-row batch; returns ``(nets, TrainEvent)``.

    The nets are updated in place, one optimizer step per completed window.
    """
    optimizer = optimizer or AdamOptimizer(cfg.lr, cfg.clip_norm)
    events = _train_batch(nets, [scene], cfg, optimizer, epoch=0,
                          scene_ids=[f"scene:{scene.seed}"])
    return nets, events[0]
