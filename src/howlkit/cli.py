"""Command-line front end.

Subcommands:
    simulate   render closed-loop amplification scenes to WAV sets
    suppress   run one suppressor variant over a WAV file or synthetic scene
    rir        batch room impulse response generation
    train      train the mask/covariance networks, streaming a JSONL log
    eval       sweep suppressor variants over loop gains, write a CSV report

Every subcommand takes --config (JSON run config; omitted keys keep library
defaults) and --seed (master seed override), and writes the effective config
next to its artifacts so a run can be reproduced from its output directory
alone.  Exit codes: 0 ok, 2 config error, 3 I/O error, 4 numeric failure.
"""

import argparse
import dataclasses
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from .ahs import KalmanAhs
from .config import RunConfig
from .loop import IdentityAhs, run_scene, save_scene_result
from .metrics import evaluate, spectrogram_pgm
from .rooms import RoomSpec, generate_rir, sabine_min_rt60, save_rir
from .signals import ConfigError, TimeSignal
from .training import load_checkpoint, train
from .wavio import read_wav, write_wav

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

VARIANTS = ("none", "kalman", "neuralkalman")


# ---------------------------------------------------------------------------
# helpers


def _effective_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    seed = getattr(args, "seed", None)
    if seed is not None:
        data = cfg.to_dict()
        data["seed"] = seed
        data["trainer"]["seed"] = seed
        data["neural"]["seed"] = seed
        cfg = RunConfig(data)
    return cfg


def _out_dir(args, cfg: RunConfig) -> str:
    out = args.out if args.out else cfg.paths()["out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_config_echo(cfg: RunConfig, out: str) -> str:
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        f.write(cfg.to_json())
    return path


def _load_nets(cfg: RunConfig, checkpoint: str):
    """Checkpoint nets when a path is given, fresh config nets otherwise."""
    if checkpoint:
        return load_checkpoint(checkpoint)
    return cfg.nets()


def _build_suppressor_factory(cfg: RunConfig, variant: str, nets=None,
                              no_mask=False, no_cov=False,
                              stop_grad_filter=False):
    """Return factory(scene) -> suppressor for a closed-loop run.

    Ablation flags strip networks from the neural variant; with both
    stripped the construction is exactly the classical filter.
    """
    if variant == "none":
        return lambda scene: IdentityAhs()
    stft_cfg = cfg.stft()
    fdkf_cfg = cfg.fdkf()
    kwargs = {}
    if variant == "neuralkalman":
        neural = cfg.to_dict()["neural"]
        kwargs = {
            "mask_net": None if no_mask else nets.get("mask"),
            "vv_net": None if no_cov else nets.get("vv"),
            "dd_net": None if no_cov else nets.get("dd"),
            "mask_scope": neural["mask_scope"],
            "stop_grad_filter": stop_grad_filter or neural["stop_grad_filter"],
        }
    return lambda scene: KalmanAhs.for_scene(scene, stft_cfg=stft_cfg,
                                             fdkf_cfg=fdkf_cfg, **kwargs)


def _check_count(value: int, flag: str):
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _check_finite(samples, what: str):
    if not np.all(np.isfinite(samples)):
        raise ArithmeticError(f"{what} diverged: non-finite samples in the output")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> None:
    _check_count(args.count, "--count")
    cfg = _effective_config(args)
    out = _out_dir(args, cfg)
    _write_config_echo(cfg, out)
    duration = args.duration if args.duration is not None else cfg.loop_knobs()["duration"]
    sampler = cfg.sampler(args.split, duration=duration)
    det = cfg.detector()
    rows = []
    for i in range(args.count):
        scene = sampler.scene(i, gain=args.gain)
        result = run_scene(scene, IdentityAhs(), det=det)
        stem = f"scene{i:03d}"
        save_scene_result(result, out, stem)
        rows.append({
            "stem": stem,
            "gain": result.gain,
            "delay_samples": result.delay_samples,
            "howl_event": result.howl_event,
        })
        print(f"{stem}: gain={result.gain:.3g} howl={result.howl_event}")
    manifest = {
        "split": args.split,
        "seed": cfg.seed,
        "count": args.count,
        "duration": duration,
        "scenes": rows,
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"wrote {args.count} scenes to {out}")


def cmd_suppress(args) -> None:
    cfg = _effective_config(args)
    out = _out_dir(args, cfg)
    _write_config_echo(cfg, out)
    checkpoint = args.checkpoint or cfg.paths()["checkpoint"]
    nets = None
    if args.variant == "neuralkalman":
        nets = _load_nets(cfg, checkpoint)
    factory = _build_suppressor_factory(
        cfg, args.variant, nets=nets, no_mask=args.no_mask, no_cov=args.no_cov,
        stop_grad_filter=args.stop_grad_filter)

    if args.in_path:
        _suppress_wav(args, cfg, out, factory)
    else:
        _suppress_scene(args, cfg, out, factory)


def _suppress_wav(args, cfg: RunConfig, out: str, factory) -> None:
    """Open-loop pass over a recorded microphone signal, one hop at a time."""
    stft_cfg = cfg.stft()
    knobs = cfg.loop_knobs()
    sig = read_wav(args.in_path, expect_rate=stft_cfg.sample_rate)
    gain = knobs["gain"] if args.gain is None else args.gain
    delay_samples = int(round(knobs["delay"] * stft_cfg.sample_rate))
    # the factory reads the loop geometry off a scene-shaped object
    mirror = SimpleNamespace(gain=gain, delay_samples=delay_samples,
                             sat=knobs["sat"])
    ahs = factory(mirror)

    hop = stft_cfg.hop
    n = len(sig.samples)
    padded = np.zeros(((n + hop - 1) // hop) * hop)
    padded[:n] = sig.samples
    chunks = [np.asarray(ahs(padded[k: k + hop]), dtype=np.float64)
              for k in range(0, len(padded), hop)]
    s_hat = np.concatenate(chunks)[:n] if chunks else np.zeros(0)
    _check_finite(s_hat, "suppressor")

    out_wav = os.path.join(out, "s_hat.wav")
    write_wav(out_wav, s_hat, stft_cfg.sample_rate, fmt=args.wav_format)
    spectrogram_pgm(sig, os.path.join(out, "input.pgm"), stft_cfg)
    spectrogram_pgm(TimeSignal(s_hat, stft_cfg.sample_rate),
                    os.path.join(out, "s_hat.pgm"), stft_cfg)
    manifest = {
        "mode": "wav",
        "input": os.path.abspath(args.in_path),
        "variant": args.variant,
        "gain": gain,
        "delay_samples": delay_samples,
        "latency": getattr(ahs, "latency", 0),
        "files": {"s_hat": "s_hat.wav",
                  "spectrograms": ["input.pgm", "s_hat.pgm"]},
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"wrote {out_wav}")


def _suppress_scene(args, cfg: RunConfig, out: str, factory) -> None:
    """Closed-loop run over one synthetic scene."""
    stft_cfg = cfg.stft()
    knobs = cfg.loop_knobs()
    duration = args.duration if args.duration is not None else knobs["duration"]
    sampler = cfg.sampler("test", duration=duration)
    gain = knobs["gain"] if args.gain is None else args.gain
    scene = sampler.scene(args.scene, gain=gain)
    result = run_scene(scene, factory(scene), det=cfg.detector())
    _check_finite(result.s_hat, "suppressor")

    save_scene_result(result, out, "scene")
    spectrogram_pgm(TimeSignal(result.y, stft_cfg.sample_rate),
                    os.path.join(out, "scene_y.pgm"), stft_cfg)
    spectrogram_pgm(TimeSignal(result.s_hat, stft_cfg.sample_rate),
                    os.path.join(out, "scene_s_hat.pgm"), stft_cfg)
    manifest = {
        "mode": "synthetic",
        "scene_index": args.scene,
        "variant": args.variant,
        "gain": gain,
        "howl_event": result.howl_event,
        "latency": result.ahs_latency,
        "files": {"result": "scene_manifest.json",
                  "spectrograms": ["scene_y.pgm", "scene_s_hat.pgm"]},
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    howl = "howled at sample %d" % result.howl_event if result.howl_event is not None else "no howl"
    print(f"scene {args.scene} variant={args.variant} gain={gain:.3g}: {howl}")


def cmd_rir(args) -> None:
    _check_count(args.count, "--count")
    cfg = _effective_config(args)
    out = _out_dir(args, cfg)
    _write_config_echo(cfg, out)
    trainer = cfg.trainer()
    fs = cfg.stft().sample_rate
    rng = np.random.default_rng([cfg.seed, 3])
    rows = []
    for i in range(args.count):
        dims = rng.uniform((4.0, 3.0, 2.5), (8.0, 6.0, 3.5))
        src = dims * rng.uniform(0.12, 0.88, 3)
        mic = dims * rng.uniform(0.12, 0.88, 3)
        while np.linalg.norm(src - mic) < 1.0:
            mic = dims * rng.uniform(0.12, 0.88, 3)
        rt60 = rng.uniform(*trainer.rt60_range)
        rt60 = max(rt60, 1.05 * sabine_min_rt60(dims))
        spec = RoomSpec(tuple(dims), tuple(src), tuple(mic), rt60, sample_rate=fs)
        rir = generate_rir(spec)
        fname = f"rir{i:03d}.wav"
        save_rir(os.path.join(out, fname), rir)
        rows.append({
            "file": fname,
            "dimensions": [round(v, 4) for v in dims],
            "source": [round(v, 4) for v in src],
            "mic": [round(v, 4) for v in mic],
            "rt60": round(rt60, 4),
            "taps": len(rir.taps),
        })
        print(f"{fname}: room {dims.round(2).tolist()} rt60={rt60:.3f}")
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump({"sample_rate": fs, "seed": cfg.seed, "rirs": rows}, f, indent=2)
        f.write("\n")
    print(f"wrote {args.count} responses to {out}")


def _load_corpus(corpus_dir: str, sample_rate: int):
    names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".wav"))
    if not names:
        raise FileNotFoundError(f"no .wav files in corpus directory {corpus_dir}")
    return [read_wav(os.path.join(corpus_dir, f), expect_rate=sample_rate)
            for f in names]


def cmd_train(args) -> None:
    cfg = _effective_config(args)
    out = _out_dir(args, cfg)
    _write_config_echo(cfg, out)
    tcfg = cfg.trainer()
    if args.epochs is not None:
        tcfg = dataclasses.replace(tcfg, epochs=args.epochs)
    if args.duration is not None:
        tcfg = dataclasses.replace(tcfg, duration=args.duration)

    corpus_dir = args.corpus or cfg.paths()["corpus_dir"]
    if args.synthetic:
        utterances = None
    elif corpus_dir:
        utterances = _load_corpus(corpus_dir, cfg.stft().sample_rate)
    else:
        raise ConfigError("train needs --synthetic or a corpus (--corpus/paths.corpus_dir)")

    sampler = cfg.sampler("train", duration=tcfg.duration, utterances=utterances)
    # validation pool: test-split draws under a shifted seed, so the primary
    # test split stays untouched for final evaluation
    val_sampler = cfg.sampler("test", duration=tcfg.duration,
                              seed=cfg.seed + 17, utterances=utterances)
    nets = cfg.nets()
    log_path = os.path.join(out, "train_log.jsonl")
    print(f"training {'+'.join(sorted(nets))} for {tcfg.epochs} epochs "
          f"x {tcfg.scenes_per_epoch} scenes (log: {log_path})")
    nets, events = train(nets, sampler, tcfg, val_sampler=val_sampler,
                         log_path=log_path, checkpoint_dir=out)
    aborts = sum(1 for e in events if e.howl_abort)
    nans = sum(e.nan_events for e in events)
    losses = [e.loss for e in events if not e.howl_abort]
    print(f"trained on {len(events)} scenes: mean loss {np.mean(losses):.4f}, "
          f"{aborts} howl aborts, {nans} non-finite steps")
    print(f"checkpoints: {os.path.join(out, 'best')} (best), "
          f"{os.path.join(out, 'final')} (final)")


def cmd_eval(args) -> None:
    _check_count(args.scenes, "--scenes")
    cfg = _effective_config(args)
    out = _out_dir(args, cfg)
    _write_config_echo(cfg, out)
    duration = args.duration if args.duration is not None else cfg.trainer().duration
    sampler = cfg.sampler("test", duration=duration)
    scenes = sampler.scenes(args.scenes)

    variants = {
        "none": _build_suppressor_factory(cfg, "none"),
        "kalman": _build_suppressor_factory(cfg, "kalman"),
    }
    checkpoint = args.checkpoint or cfg.paths()["checkpoint"]
    if checkpoint:
        nets = load_checkpoint(checkpoint)
        variants["neuralkalman"] = _build_suppressor_factory(
            cfg, "neuralkalman", nets=nets)

    gains = tuple(args.gains) if args.gains else (1.5, 2.0, 2.5, 3.0)
    report = evaluate(scenes, variants, gains=gains, det=cfg.detector(),
                      stft_cfg=cfg.stft())
    csv_path = os.path.join(out, "report.csv")
    with open(csv_path, "w") as f:
        f.write(report.to_csv())
    text = report.summary()
    with open(os.path.join(out, "summary.txt"), "w") as f:
        f.write(text + "\n")
    print(text)
    print(f"report: {csv_path}")


# ---------------------------------------------------------------------------
# parser


def _parse_gains(text: str):
    try:
        gains = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad gain list {text!r}")
    if not gains:
        raise argparse.ArgumentTypeError("gain list is empty")
    return gains


def _add_common(sub):
    sub.add_argument("--config", help="JSON run config (defaults apply when omitted)")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--out", help="output directory (default: paths.out_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="howlkit",
        description="Closed-loop acoustic howling simulation and suppression.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="render closed-loop scenes to WAV sets")
    _add_common(p)
    p.add_argument("--count", type=int, default=4, help="number of scenes")
    p.add_argument("--gain", type=float, help="force this loop gain (default: sampled)")
    p.add_argument("--duration", type=float, help="scene length in seconds")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("suppress", help="run one suppressor variant")
    _add_common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="in_path", help="input microphone WAV (open loop)")
    src.add_argument("--synthetic", action="store_true",
                     help="run inside a synthetic closed-loop scene")
    p.add_argument("--variant", choices=VARIANTS, default="kalman")
    p.add_argument("--checkpoint", help="trained network checkpoint directory")
    p.add_argument("--no-mask", action="store_true",
                   help="ablation: drop the mask network")
    p.add_argument("--no-cov", action="store_true",
                   help="ablation: drop both covariance networks")
    p.add_argument("--stop-grad-filter", action="store_true",
                   help="wiring flag carried into the suppressor")
    p.add_argument("--gain", type=float, help="loop gain (default: config loop.gain)")
    p.add_argument("--duration", type=float, help="scene length in seconds (synthetic)")
    p.add_argument("--scene", type=int, default=0, help="test-split scene index (synthetic)")
    p.add_argument("--wav-format", choices=("float32", "pcm16"), default="float32")
    p.set_defaults(func=cmd_suppress)

    p = subs.add_parser("rir", help="batch room impulse response generation")
    _add_common(p)
    p.add_argument("--count", type=int, default=8, help="number of rooms")
    p.set_defaults(func=cmd_rir)

    p = subs.add_parser("train", help="train the mask/covariance networks")
    _add_common(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--synthetic", action="store_true",
                     help="train on synthetic speech instead of a corpus")
    src.add_argument("--corpus", help="directory of 16 kHz mono WAV utterances")
    p.add_argument("--epochs", type=int, help="override trainer.epochs")
    p.add_argument("--duration", type=float, help="override trainer.duration")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="sweep variants over loop gains")
    _add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint for the neural variant")
    p.add_argument("--scenes", type=int, default=8, help="held-out scenes per sweep point")
    p.add_argument("--gains", type=_parse_gains, help="comma-separated gain list")
    p.add_argument("--duration", type=float, help="scene length in seconds")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors (exit 2)
        return int(exc.code or 0)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"howlkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"howlkit: invalid value: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"howlkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"howlkit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
