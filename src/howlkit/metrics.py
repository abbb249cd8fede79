"""Objective evaluation: SDR, log-spectral distance, and sweep reports.

SDR here is the plain energy ratio between the target and the residual —
no permutation search or projection, since every scene has exactly one
source.  It is deliberately sensitive to scale: an estimate at half the
target amplitude scores ~6 dB even though it "sounds" clean.  LSD stands in
for perceptual scores; it compares log-magnitude spectra frame by frame.
"""

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .loop import HowlDetectorConfig, LoopScene, run_scene
from .signals import StftConfig, TimeSignal, stft

SDR_CAP_DB = 60.0
SDR_FLOOR_DB = -99.0


def _as_samples(sig) -> np.ndarray:
    if isinstance(sig, TimeSignal):
        return sig.samples
    return np.asarray(sig, dtype=np.float64)


def sdr(reference, estimate) -> float:
    """10*log10(sum s^2 / sum (s - s_hat)^2), in dB.

    Capped at +60 dB (residual numerically zero) and floored at -99 dB when
    the reference itself is silent.  Inputs may be TimeSignals or arrays of
    equal length.
    """
    s = _as_samples(reference)
    s_hat = _as_samples(estimate)
    if isinstance(reference, TimeSignal) and isinstance(estimate, TimeSignal):
        if reference.sample_rate != estimate.sample_rate:
            raise ValueError("sample rates differ")
    if s.shape != s_hat.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {s_hat.shape}")
    num = float(np.sum(s * s))
    if num == 0.0:
        return SDR_FLOOR_DB
    den = float(np.sum((s - s_hat) ** 2))
    if den == 0.0:
        return SDR_CAP_DB
    return min(10.0 * np.log10(num / den), SDR_CAP_DB)


def lsd(reference, estimate, cfg: StftConfig = None) -> float:
    """Log-spectral distance in dB: mean over frames of the RMS over bins
    of the difference between 20*log10(|S| + delta) spectra, delta = 1e-8."""
    if cfg is None:
        cfg = StftConfig()
    s = _as_samples(reference)
    s_hat = _as_samples(estimate)
    if s.shape != s_hat.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {s_hat.shape}")
    return _spectral_distance(_log_spectrum(s, cfg), _log_spectrum(s_hat, cfg))


def _log_spectrum(samples, cfg: StftConfig) -> np.ndarray:
    """20*log10(|STFT| + 1e-8) frames of one signal, as lsd compares them."""
    return 20.0 * np.log10(np.abs(stft(TimeSignal(samples, cfg.sample_rate), cfg)) + 1e-8)


def _spectral_distance(ref_db, est_db) -> float:
    return float(np.mean(np.sqrt(np.mean((ref_db - est_db) ** 2, axis=1))))


def spectrogram_pgm(signal, path: str, cfg: StftConfig = None, db_range=(-80.0, 0.0)):
    """Write a log-magnitude spectrogram as a binary portable graymap.

    Rows run from the highest bin at the top to DC at the bottom; columns are
    frames.  Magnitudes are normalized to the signal's own peak, mapped over
    ``db_range`` (default [-80, 0] dB) and quantized to 8 bits.
    """
    if cfg is None:
        cfg = StftConfig()
    sig = signal if isinstance(signal, TimeSignal) else TimeSignal(_as_samples(signal), cfg.sample_rate)
    mags = np.abs(stft(sig, cfg))
    peak = np.max(mags)
    if peak == 0.0:
        peak = 1.0
    db = 20.0 * np.log10(np.maximum(mags / peak, 1e-12))
    lo, hi = float(db_range[0]), float(db_range[1])
    if not lo < hi:
        raise ValueError("db_range must be (low, high) with low < high")
    level = np.clip((db - lo) / (hi - lo), 0.0, 1.0)
    img = np.round(255.0 * level).astype(np.uint8).T[::-1]  # bins x frames, DC last
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        f.write(img.tobytes())
    return path


@dataclass(frozen=True)
class EvalRow:
    """Outcome of one (variant, gain, scene) run."""

    variant: str
    gain: float
    scene_id: int
    sdr: float
    lsd: float
    howled: bool


@dataclass(frozen=True)
class EvalReport:
    """Per-scene rows plus aggregates recomputable from them."""

    rows: tuple

    def aggregates(self):
        """dict keyed by (variant, gain): mean/std of SDR and LSD, howl rate."""
        groups = {}
        for row in self.rows:
            groups.setdefault((row.variant, row.gain), []).append(row)
        out = {}
        for key in sorted(groups, key=lambda kv: (kv[0], kv[1])):
            rows = groups[key]
            sdrs = np.array([r.sdr for r in rows])
            lsds = np.array([r.lsd for r in rows])
            out[key] = {
                "count": len(rows),
                "sdr_mean": float(np.mean(sdrs)),
                "sdr_std": float(np.std(sdrs)),
                "lsd_mean": float(np.mean(lsds)),
                "lsd_std": float(np.std(lsds)),
                "howl_rate": float(np.mean([r.howled for r in rows])),
            }
        return out

    def to_csv(self, path: str = None) -> str:
        """Write per-scene rows as CSV; returns the text."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["variant", "gain", "scene", "sdr_db", "lsd_db", "howled"])
        for r in self.rows:
            writer.writerow([r.variant, f"{r.gain:g}", r.scene_id,
                             f"{r.sdr:.4f}", f"{r.lsd:.4f}", int(r.howled)])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def summary(self) -> str:
        """Mean +/- std table, one line per (variant, gain)."""
        lines = ["variant        gain   n   SDR mean+/-std (dB)   LSD mean (dB)  howl%"]
        for (variant, gain), agg in self.aggregates().items():
            lines.append(
                "%-14s %4g  %2d   %8.2f +/- %-6.2f   %10.2f      %4.0f"
                % (variant, gain, agg["count"], agg["sdr_mean"], agg["sdr_std"],
                   agg["lsd_mean"], 100.0 * agg["howl_rate"])
            )
        return "\n".join(lines)


def _sweep_rows(sweep, variant_name, factory, scene_id, ref, det, stft_cfg):
    """One EvalRow per gain of one sweep run, in gain order.

    The run's streams die with this call, so one sweep is alive at a time.
    ``ref`` caches the scene's target log spectrum across its runs.
    """
    rows = []
    for res in run_scene(sweep, factory(sweep), det=det):
        if "db" not in ref:
            ref["db"] = _log_spectrum(res.s, stft_cfg)
        s_hat = res.s_hat_aligned()
        rows.append(EvalRow(
            variant=variant_name,
            gain=res.gain,
            scene_id=scene_id,
            sdr=sdr(res.s, s_hat),
            lsd=_spectral_distance(ref["db"], _log_spectrum(s_hat, stft_cfg)),
            howled=res.howl_event is not None,
        ))
    return rows


def evaluate(scenes, variants, gains=(1.5, 2.0, 2.5, 3.0), det: HowlDetectorConfig = None,
             stft_cfg: StftConfig = None) -> EvalReport:
    """Run every AHS variant over every scene at every gain.

    ``variants`` maps name -> factory(scene) -> suppressor callback; a fresh
    suppressor is built per run so filter state never leaks between scenes.
    ``scenes`` are templates whose gain field is overridden by the sweep:
    each factory is called once per (variant, scene) with a gain-sweep copy
    (``gain`` is the tuple of all gains) and must return a suppressor that
    maps (B, hop) frames to (B, hop) frames; all gains then run in lockstep.
    Each row equals the scalar-gain run's (bitwise for IdentityAhs and the
    classical KalmanAhs; attached nets agree to rounding).  The copies share
    each template's target, so it is reverberated once per scene, and its
    log spectrum is taken once.  Rows come in a fixed order: variant name,
    then gain, then scene.
    """
    if stft_cfg is None:
        stft_cfg = StftConfig()
    gains = tuple(float(g) for g in gains)
    names = sorted(variants)
    table = {}
    for sid, scene in enumerate(scenes):
        sweep = replace(scene, gain=gains)
        ref = {}
        for name in names:
            swept = _sweep_rows(sweep, name, variants[name], sid, ref, det, stft_cfg)
            for gi, row in enumerate(swept):
                table[name, gi, sid] = row
    rows = [table[name, gi, sid] for name in names for gi in range(len(gains))
            for sid in range(len(scenes))]
    return EvalReport(rows=tuple(rows))
