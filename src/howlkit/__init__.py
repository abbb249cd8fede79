"""howlkit: closed-loop acoustic howling simulation and suppression.

A numpy/scipy toolkit that simulates single-channel amplification systems
prone to howling and suppresses the howling with a per-bin frequency-domain
Kalman filter, optionally augmented by small recurrent networks for
reference-mask refinement and covariance estimation, trained in streaming
closed loop.
"""

from .ahs import KalmanAhs, SuppressorSpec
from .fdkf import FdkfConfig, KalmanFilter
from .loop import HowlDetectorConfig, IdentityAhs, LoopScene, SceneResult, run_scene
from .metrics import EvalReport, evaluate, lsd, sdr, spectrogram_pgm
from .rooms import Rir, RoomSpec, generate_rir
from .signals import StftConfig, TimeSignal, istft, log_power, stft
from .training import SceneSampler, TrainConfig, load_checkpoint, synth_speech, train
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "FdkfConfig",
    "HowlDetectorConfig",
    "IdentityAhs",
    "KalmanAhs",
    "KalmanFilter",
    "LoopScene",
    "Rir",
    "RoomSpec",
    "SceneResult",
    "SceneSampler",
    "SuppressorSpec",
    "StftConfig",
    "TimeSignal",
    "TrainConfig",
    "evaluate",
    "generate_rir",
    "istft",
    "load_checkpoint",
    "log_power",
    "lsd",
    "read_wav",
    "run_scene",
    "sdr",
    "spectrogram_pgm",
    "stft",
    "synth_speech",
    "train",
    "write_wav",
    "__version__",
]
