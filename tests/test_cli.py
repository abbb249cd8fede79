"""Command-line paths: artifacts, determinism, ablation wiring, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import howlkit.cli as cli
from howlkit.ahs import KalmanAhs
from howlkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from howlkit.config import RunConfig
from howlkit.training import SceneSampler, save_checkpoint
from howlkit.wavio import read_wav, write_wav
from oracles import per_hop_open_loop


def run(*argv):
    return main([str(a) for a in argv])


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def write_config(path, data):
    path.write_text(json.dumps(data))
    return path


TINY_TRAIN = {
    "trainer": {"epochs": 1, "scenes_per_epoch": 2, "batch_size": 2,
                "duration": 1.0, "validation_scenes": 1},
    "neural": {"mask_hidden": [8]},
}


# ---------------------------------------------------------------- plumbing


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.signal alone loads ~470 modules (stats, special, linalg, ...):
    # the package and its command line must start on numpy, scipy.sparse
    # and scipy.io
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, howlkit, howlkit.cli\n"
            "print('\\n'.join(name for name in sys.modules if name.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heavy = ("scipy.signal", "scipy.fft", "scipy.stats", "scipy.special")
    loaded = [name for name in proc.stdout.split()
              if any(name == pkg or name.startswith(pkg + ".") for pkg in heavy)]
    assert loaded == []
    assert "scipy.sparse" in proc.stdout.split()


def test_no_arguments_is_a_usage_error(capsys):
    assert run() == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "simulate" in capsys.readouterr().out


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert run("simulate", "--config", tmp_path / "none.json",
               "--out", tmp_path / "o") == EXIT_IO
    capsys.readouterr()


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"stft": {"hopp": 1}}')
    assert run("simulate", "--config", path, "--out", tmp_path / "o") == EXIT_CONFIG
    assert "stft.hopp" in capsys.readouterr().err


EVAL_CKPT = ["eval", "--scenes", 1, "--duration", 0.5, "--gains", "2", "--checkpoint"]
SUPPRESS_CKPT = ["suppress", "--synthetic", "--duration", 0.5, "--variant", "neuralkalman",
                 "--checkpoint"]


@pytest.mark.parametrize("argv, data, code", [
    (["eval", "--checkpoint", "{tmp}/nope", "--scenes", 1, "--duration", 0.5], {}, EXIT_IO),
    # a delay of 0.08 samples rounds to none: LoopScene refuses the drawn scene
    (["eval", "--scenes", 1, "--duration", 0.5, "--gains", "2"],
     {"sampler": {"delay_range": [0.0, 5e-6]}}, EXIT_CONFIG),
    (["train", "--synthetic"], dict(TINY_TRAIN, sampler={"delay_range": [0.01, 0.02]}),
     EXIT_CONFIG),
    (["train", "--synthetic"], dict(TINY_TRAIN, trainer=dict(
        TINY_TRAIN["trainer"], t_bptt=64)), EXIT_CONFIG),
    (["suppress", "--in", "{tmp}/mic.wav"], {"loop": {"delay": 0.002}}, EXIT_CONFIG),
    (["suppress", "--in", "{tmp}/mic.wav", "--variant", "none"],
     {"loop": {"delay": 0.002}}, EXIT_CONFIG),
    (["suppress", "--synthetic", "--duration", 0.5],
     {"sampler": {"delay_range": [0.002, 0.003]}}, EXIT_CONFIG),
    # {tmp}/ckpt records the default suppressor, {tmp}/bare records none
    (EVAL_CKPT + ["{tmp}/ckpt"], {"fdkf": {"num_taps": 8}}, EXIT_CONFIG),
    (SUPPRESS_CKPT + ["{tmp}/ckpt"], {"fdkf": {"num_taps": 8}}, EXIT_CONFIG),
    (EVAL_CKPT + ["{tmp}/ckpt"], {"stft": {"frame_len": 256, "hop": 128}}, EXIT_CONFIG),
    (SUPPRESS_CKPT + ["{tmp}/ckpt"], {"stft": {"frame_len": 256, "hop": 128}}, EXIT_CONFIG),
    (EVAL_CKPT + ["{tmp}/bare"], {}, EXIT_CONFIG),
    (SUPPRESS_CKPT + ["{tmp}/bare"], {}, EXIT_CONFIG),
    # moved keys are unknown: sampler.duration, sampler.*_range
    (["simulate", "--count", 1], {"loop": {"duration": 0.5}}, EXIT_CONFIG),
    (["rir", "--count", 1], {"trainer": {"rt60_range": [0.2, 0.3]}}, EXIT_CONFIG),
    (["eval", "--scenes", 1, "--duration", 0.5], {"trainer": {"gain_range": [1.0, 2.0]}},
     EXIT_CONFIG),
    (["train", "--synthetic"], dict(TINY_TRAIN, trainer=dict(
        TINY_TRAIN["trainer"], delay_range=[0.15, 0.25])), EXIT_CONFIG),
    (["train", "--synthetic"], dict(TINY_TRAIN, neural={"stop_grad_filter": True}),
     EXIT_CONFIG),
    # a value of another JSON type than its default
    (["simulate", "--count", 1], {"sampler": {"duration": "4"}}, EXIT_CONFIG),
    (["simulate", "--count", 1], {"loop": {"gain": "2"}}, EXIT_CONFIG),
    (["simulate", "--count", 1], {"trainer": {"epochs": "3"}}, EXIT_CONFIG),
    (["train", "--synthetic"], dict(TINY_TRAIN, neural={"mask_hidden": 8}), EXIT_CONFIG),
    # keys that are gone: one optimizer, one gradient path
    *[(["train", "--synthetic"],
       dict(TINY_TRAIN, trainer=dict(TINY_TRAIN["trainer"], **{key: value})), EXIT_CONFIG)
      for key, value in (("optimizer", "sgd"), ("beta1", 0.9), ("beta2", 0.999),
                         ("opt_eps", 1e-8), ("stop_grad_filter", True))],
    # a gain that is not finite and >= 0, on the command line or in the config
    (["simulate", "--count", 1, "--duration", 0.3, "--gain", "nan"], {}, EXIT_CONFIG),
    (["simulate", "--count", 1, "--duration", 0.3, "--gain", "inf"], {}, EXIT_CONFIG),
    (["simulate", "--count", 1, "--duration", 0.3, "--gain", "-1"], {}, EXIT_CONFIG),
    (["eval", "--scenes", 1, "--duration", 0.5, "--gains", "2,nan"], {}, EXIT_CONFIG),
    (["eval", "--scenes", 1, "--duration", 0.5, "--gains", "2,-1"], {}, EXIT_CONFIG),
    (["suppress", "--synthetic", "--duration", 0.5], {"loop": {"gain": float("nan")}},
     EXIT_CONFIG),
    (["suppress", "--synthetic", "--duration", 0.5, "--gain", "inf"], {}, EXIT_CONFIG),
    (["suppress", "--in", "{tmp}/mic.wav"], {"loop": {"sat": float("inf")}}, EXIT_CONFIG),
], ids=["eval-missing-checkpoint", "eval-zero-delay-scene", "train-short-delay",
        "train-long-window", "suppress-in-short-delay", "suppress-in-none-short-delay",
        "suppress-synthetic-short-delay", "eval-checkpoint-other-taps",
        "suppress-checkpoint-other-taps", "eval-checkpoint-other-frame-len",
        "suppress-checkpoint-other-frame-len", "eval-checkpoint-without-spec",
        "suppress-checkpoint-without-spec", "simulate-loop-duration", "rir-trainer-rt60-range",
        "eval-trainer-gain-range", "train-trainer-delay-range",
        "train-neural-stop-grad-filter", "simulate-string-duration", "simulate-string-gain",
        "simulate-string-epochs", "train-scalar-mask-hidden", "train-trainer-optimizer",
        "train-trainer-beta1", "train-trainer-beta2", "train-trainer-opt-eps",
        "train-trainer-stop-grad-filter", "simulate-nan-gain", "simulate-inf-gain",
        "simulate-negative-gain", "eval-nan-gain", "eval-negative-gain",
        "suppress-nan-loop-gain", "suppress-inf-gain", "suppress-in-inf-loop-sat"])
def test_refused_runs_write_nothing(tmp_path, capsys, argv, data, code):
    write_wav(tmp_path / "mic.wav", np.full(2000, 0.1), 16000, fmt="float32")
    save_checkpoint(RunConfig().nets(), str(tmp_path / "ckpt"))
    save_checkpoint(RunConfig().nets(), str(tmp_path / "bare"))
    record = json.loads((tmp_path / "bare" / "checkpoint.json").read_text())
    del record["suppressor"]
    write_config(tmp_path / "bare" / "checkpoint.json", record)
    cfg = write_config(tmp_path / "cfg.json", data)
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(*argv, "--config", cfg, "--out", tmp_path / "o") == code
    capsys.readouterr()
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- simulate


def test_simulate_writes_scene_sets_and_manifest(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--count", 2, "--duration", 1.0,
               "--seed", 3) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 2 and manifest["seed"] == 3
    assert len(manifest["scenes"]) == 2
    for i in range(2):
        for name in ("s", "y", "s_hat", "x", "d"):
            assert (out / f"scene{i:03d}_{name}.wav").exists()
        assert (out / f"scene{i:03d}_manifest.json").exists()


def test_fixed_seed_gives_bit_identical_outputs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--out", out, "--count", 1, "--duration", 1.0,
                   "--seed", 7) == EXIT_OK
    capsys.readouterr()
    for name in ("y", "s_hat", "d"):
        assert read_bytes(a / f"scene000_{name}.wav") == read_bytes(b / f"scene000_{name}.wav")


def test_config_echo_reingests_to_identical_run(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--out", out, "--count", 1, "--duration", 1.0,
               "--seed", 11) == EXIT_OK
    capsys.readouterr()
    echoed = RunConfig.from_file(str(out / "config.json"))
    assert echoed.seed == 11
    # a second run driven purely by the echoed config reproduces the first
    out2 = tmp_path / "sim2"
    assert run("simulate", "--config", out / "config.json", "--out", out2,
               "--count", 1, "--duration", 1.0) == EXIT_OK
    capsys.readouterr()
    assert read_bytes(out / "scene000_y.wav") == read_bytes(out2 / "scene000_y.wav")


def test_simulate_zero_duration_is_config_error(tmp_path, capsys):
    assert run("simulate", "--duration", 0, "--count", 1,
               "--out", tmp_path / "o") == EXIT_CONFIG
    assert "duration" in capsys.readouterr().err


def test_simulate_shorter_than_synthetic_speech_writes_nothing(tmp_path, capsys):
    # 0.001 s is 16 samples, under the 192 samples synthetic speech smooths over
    assert run("simulate", "--duration", 0.001, "--count", 1,
               "--out", tmp_path / "o") == EXIT_CONFIG
    assert "scene duration 0.001 s is 16 samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_nonpositive_count_is_config_error(tmp_path, capsys):
    for count in (0, -1):
        assert run("simulate", "--count", count, "--out", tmp_path / "o") == EXIT_CONFIG
        assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- suppress


def test_passthrough_on_gainless_scene_is_bit_exact(tmp_path, capsys):
    out = tmp_path / "sup"
    assert run("suppress", "--synthetic", "--out", out, "--variant", "none",
               "--gain", 0, "--duration", 1.0) == EXIT_OK
    capsys.readouterr()
    assert read_bytes(out / "scene_s_hat.wav") == read_bytes(out / "scene_y.wav")


def test_open_loop_passthrough_is_bit_exact(tmp_path, capsys):
    rng = np.random.default_rng(0)
    wav = tmp_path / "mic.wav"
    write_wav(wav, 0.3 * rng.standard_normal(5000), 16000, fmt="float32")
    out = tmp_path / "sup"
    assert run("suppress", "--in", wav, "--out", out, "--variant", "none") == EXIT_OK
    capsys.readouterr()
    assert read_bytes(out / "s_hat.wav") == read_bytes(wav)


def test_open_loop_pcm16_round_trip_is_bit_exact(tmp_path, capsys):
    rng = np.random.default_rng(1)
    wav = tmp_path / "mic.wav"
    write_wav(wav, 0.5 * rng.standard_normal(4000), 16000, fmt="pcm16")
    out = tmp_path / "sup"
    assert run("suppress", "--in", wav, "--out", out, "--variant", "none",
               "--wav-format", "pcm16") == EXIT_OK
    capsys.readouterr()
    assert read_bytes(out / "s_hat.wav") == read_bytes(wav)


def test_suppress_input_shorter_than_a_frame_writes_nothing(tmp_path, capsys):
    wav = tmp_path / "mic.wav"
    write_wav(wav, np.full(10, 0.1), 16000, fmt="float32")
    assert run("suppress", "--in", wav, "--out", tmp_path / "o") == EXIT_CONFIG
    assert f"input {wav} has 10 samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sample_rate_mismatch_is_refused(tmp_path, capsys):
    wav = tmp_path / "mic8k.wav"
    write_wav(wav, np.zeros(800), 8000, fmt="pcm16")
    assert run("suppress", "--in", wav, "--out", tmp_path / "o") == EXIT_CONFIG
    assert "resampling" in capsys.readouterr().err


def test_suppress_writes_spectrograms(tmp_path, capsys):
    out = tmp_path / "sup"
    assert run("suppress", "--synthetic", "--out", out, "--variant", "kalman",
               "--gain", 1.5, "--duration", 1.0) == EXIT_OK
    capsys.readouterr()
    for name in ("scene_y.pgm", "scene_s_hat.pgm"):
        data = read_bytes(out / name)
        assert data.startswith(b"P5\n")


def test_stripped_neural_variant_equals_kalman_bit_exact(tmp_path, capsys):
    kal, abl = tmp_path / "kal", tmp_path / "abl"
    assert run("suppress", "--synthetic", "--out", kal, "--variant", "kalman",
               "--gain", 2, "--duration", 1.0) == EXIT_OK
    assert run("suppress", "--synthetic", "--out", abl, "--variant", "neuralkalman",
               "--no-mask", "--no-cov", "--gain", 2, "--duration", 1.0) == EXIT_OK
    capsys.readouterr()
    assert read_bytes(abl / "scene_s_hat.wav") == read_bytes(kal / "scene_s_hat.wav")


def test_suppress_has_no_stop_grad_filter_flag(tmp_path, capsys):
    # the window gradient always runs through the filter; suppress never trains
    assert run("suppress", "--synthetic", "--stop-grad-filter", "--duration", 0.5,
               "--out", tmp_path / "o") == 2
    assert "--stop-grad-filter" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    bad = SimpleNamespace(s_hat=np.array([1.0, np.nan]))
    monkeypatch.setattr(cli, "run_scene", lambda *a, **k: bad)
    assert run("suppress", "--synthetic", "--out", tmp_path / "o",
               "--duration", 1.0) == EXIT_NUMERIC
    assert "numeric" in capsys.readouterr().err


def test_non_finite_covariance_is_a_numeric_failure(tmp_path, capsys):
    nets = RunConfig().nets()
    nets["vv"].params["b_out"][:] = np.inf  # the vv net now outputs inf
    ckpt = tmp_path / "ckpt"
    save_checkpoint(nets, str(ckpt))
    assert run("suppress", "--synthetic", "--out", tmp_path / "o", "--variant", "neuralkalman",
               "--checkpoint", ckpt, "--duration", 0.5) == EXIT_NUMERIC
    assert "psi_vv must be finite" in capsys.readouterr().err


def noise_wav(path, n, seed=0, fmt="float32"):
    write_wav(path, 0.3 * np.random.default_rng(seed).standard_normal(n), 16000, fmt=fmt)
    return path


@pytest.mark.parametrize("variant, gain, loop", [
    ("kalman", 2.0, {}),
    ("neuralkalman", 2.0, {}),
    ("kalman", 2.0, {"delay": 0.1503}),
    ("neuralkalman", 0.0, {"delay": 0.1503}),
    ("kalman", 3.0, {}),
    ("neuralkalman", 3.0, {"sat": 1e-6}),
])
def test_open_loop_matches_the_per_hop_oracle(tmp_path, capsys, variant, gain, loop):
    # 5037 samples are not a whole number of 64-sample hops
    wav = noise_wav(tmp_path / "mic.wav", 5037, seed=8)
    cfg = write_config(tmp_path / "loop.json", {"loop": loop})
    out = tmp_path / "sup"
    assert run("suppress", "--in", wav, "--config", cfg, "--variant", variant,
               "--gain", gain, "--out", out) == EXIT_OK
    capsys.readouterr()
    knobs = RunConfig({"loop": loop}).loop_knobs()
    nets = RunConfig().nets() if variant == "neuralkalman" else {}
    ahs = KalmanAhs(gain, int(round(knobs["delay"] * 16000)), sat=knobs["sat"],
                    mask_net=nets.get("mask"), vv_net=nets.get("vv"), dd_net=nets.get("dd"))
    write_wav(tmp_path / "want.wav", per_hop_open_loop(read_wav(wav).samples, ahs, 64),
              16000, fmt="float32")
    assert read_bytes(out / "s_hat.wav") == read_bytes(tmp_path / "want.wav")


def test_open_loop_passthrough_clears_the_sign_of_negative_zero(tmp_path, capsys):
    # the microphone hears y = s + d, and a silent feedback path gives d = +0.0
    x = 0.3 * np.random.default_rng(2).standard_normal(3000)
    x[::7] = -0.0
    wav = tmp_path / "mic.wav"
    write_wav(wav, x, 16000, fmt="float32")
    out = tmp_path / "sup"
    assert run("suppress", "--in", wav, "--out", out, "--variant", "none") == EXIT_OK
    capsys.readouterr()
    x, got = read_wav(wav).samples, read_wav(out / "s_hat.wav").samples
    assert np.signbit(x[::7]).all()
    assert np.array_equal(got, x)
    assert np.array_equal(np.signbit(got), np.signbit(x) & (x != 0))


def test_suppress_steps_the_loop_one_configured_hop_at_a_time(tmp_path, capsys):
    cfg = write_config(tmp_path / "wide.json", {"stft": {"frame_len": 256, "hop": 128}})
    wav = noise_wav(tmp_path / "mic.wav", 3000, seed=6)
    assert run("suppress", "--synthetic", "--config", cfg, "--duration", 0.5,
               "--out", tmp_path / "syn") == EXIT_OK
    assert run("suppress", "--in", wav, "--config", cfg, "--out", tmp_path / "wav") == EXIT_OK
    # eval steps its loops at the same hop
    assert run("eval", "--config", cfg, "--scenes", 1, "--duration", 0.5, "--gains", "2",
               "--out", tmp_path / "ev") == EXIT_OK
    capsys.readouterr()
    assert len(read_wav(tmp_path / "wav" / "s_hat.wav").samples) == 3000
    assert len((tmp_path / "ev" / "report.csv").read_text().strip().splitlines()) == 3


def test_loop_delay_and_sat_reach_suppress_in_but_not_simulate(tmp_path, capsys):
    wav = noise_wav(tmp_path / "mic.wav", 5000, seed=4)

    def outputs(name, loop):
        cfg = write_config(tmp_path / f"{name}.json", {"loop": loop})
        sup, sim = tmp_path / f"{name}_sup", tmp_path / f"{name}_sim"
        assert run("suppress", "--in", wav, "--config", cfg, "--out", sup) == EXIT_OK
        assert run("simulate", "--config", cfg, "--count", 1, "--duration", 0.5,
                   "--gain", 3, "--out", sim) == EXIT_OK
        capsys.readouterr()
        return (read_bytes(sup / "s_hat.wav"),
                [read_bytes(sim / f"scene000_{name}.wav") for name in ("y", "x")])

    base_sup, base_sim = outputs("base", {})
    for name, loop in (("delay", {"delay": 0.1503}), ("sat", {"sat": 0.25})):
        sup, sim = outputs(name, loop)
        assert sup != base_sup, name
        assert sim == base_sim, name


def test_loop_gain_is_the_default_suppress_gain(tmp_path, capsys):
    wav = noise_wav(tmp_path / "mic.wav", 5000, seed=5)
    cfg = write_config(tmp_path / "gain.json", {"loop": {"gain": 1.25}})
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run("suppress", "--in", wav, "--config", cfg, "--out", a) == EXIT_OK
    assert run("suppress", "--in", wav, "--gain", 1.25, "--out", b) == EXIT_OK
    assert run("suppress", "--synthetic", "--config", cfg, "--duration", 0.5,
               "--out", c) == EXIT_OK
    capsys.readouterr()
    assert json.loads((a / "manifest.json").read_text())["gain"] == 1.25
    assert read_bytes(a / "s_hat.wav") == read_bytes(b / "s_hat.wav")
    assert json.loads((c / "manifest.json").read_text())["gain"] == 1.25
    assert json.loads((c / "scene_manifest.json").read_text())["gain"] == 1.25


def test_simulate_without_gain_keeps_the_sampled_gain(tmp_path, capsys):
    cfg = write_config(tmp_path / "gain.json", {"loop": {"gain": 1.25}})
    out = tmp_path / "sim"
    assert run("simulate", "--config", cfg, "--count", 2, "--duration", 0.5,
               "--out", out) == EXIT_OK
    capsys.readouterr()
    sampler = RunConfig().sampler("test", duration=0.5)
    gains = [row["gain"] for row in json.loads((out / "manifest.json").read_text())["scenes"]]
    assert gains == [sampler.scene(i).gain for i in range(2)]
    assert 1.25 not in gains


# ---------------------------------------------------------------- rir


def test_rir_nonpositive_count_is_config_error(tmp_path, capsys):
    for count in (0, -2):
        assert run("rir", "--count", count, "--out", tmp_path / "o") == EXIT_CONFIG
        assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rir_batch_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("rir", "--out", out, "--count", 3, "--seed", 2) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((a / "manifest.json").read_text())
    assert len(manifest["rirs"]) == 3
    for row in manifest["rirs"]:
        assert read_bytes(a / row["file"]) == read_bytes(b / row["file"])
        taps = read_wav(a / row["file"])
        assert len(taps.samples) == row["taps"]


def test_rir_draws_rt60_from_the_sampler_section(tmp_path, capsys):
    cfg = write_config(tmp_path / "rt60.json", {"sampler": {"rt60_range": [0.5, 0.5]}})
    assert run("rir", "--config", cfg, "--out", tmp_path / "o", "--count", 2) == EXIT_OK
    capsys.readouterr()
    rows = json.loads((tmp_path / "o" / "manifest.json").read_text())["rirs"]
    assert [row["rt60"] for row in rows] == [0.5, 0.5]


def test_room_draws_keep_their_bits(tmp_path, capsys):
    # rir draws source then mic, a scene mic then loudspeaker; seed 18 and
    # scene 25 each redraw their second point once
    assert run("rir", "--out", tmp_path, "--count", 2, "--seed", 18) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256()
    for name in ("manifest.json", "rir000.wav", "rir001.wav"):
        digest.update(read_bytes(tmp_path / name))
    assert digest.hexdigest() == "26c802e2e31dce0fb400142683985c04ca55bebf30e4370c1e1882dc249af6b0"
    digest = hashlib.sha256()
    sampler = SceneSampler(seed=4, split="test", duration=0.5)
    for scene in (sampler.scene(24), sampler.scene(25)):
        for samples in (scene.near_end.samples, scene.feedback_rir.taps, scene.near_rir.taps):
            digest.update(samples.tobytes())
        digest.update(repr((scene.gain, scene.delay)).encode())
    assert digest.hexdigest() == "d67db927b7f4fd6f78a901d639f30d3345bcef0f9eb4a43c71840f321da9058d"


# ---------------------------------------------------------------- train


def test_train_twice_gives_identical_checkpoints(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("train", "--synthetic", "--config", cfg, "--out", out) == EXIT_OK
    capsys.readouterr()
    for rel in ("best/mask.net", "best/vv.net", "best/dd.net",
                "best/checkpoint.json", "final/mask.net", "train_log.jsonl"):
        assert read_bytes(a / rel) == read_bytes(b / rel), rel


def test_trainer_seed_draws_the_training_scenes(tmp_path, capsys):
    # --seed k sets seed, trainer.seed and neural.seed to k; only trainer.seed
    # reaches train's scene pools
    runs = {}
    for name, trainer_seed in (("zero", 0), ("five", 5), ("five_again", 5)):
        data = dict(TINY_TRAIN, trainer=dict(TINY_TRAIN["trainer"], seed=trainer_seed))
        cfg = write_config(tmp_path / f"{name}.json", data)
        assert run("train", "--synthetic", "--config", cfg, "--out", tmp_path / name) == EXIT_OK
        runs[name] = [hashlib.sha256(read_bytes(tmp_path / name / rel)).hexdigest() for rel in
                      ("final/mask.net", "final/vv.net", "final/dd.net", "train_log.jsonl")]
    seeded = tmp_path / "seeded"
    assert run("train", "--synthetic", "--config", tmp_path / "five.json", "--seed", 5,
               "--out", seeded) == EXIT_OK
    capsys.readouterr()
    for zero, five in zip(runs["zero"], runs["five"]):
        assert zero != five
    assert runs["five"] == runs["five_again"]
    # master and net seeds 5 as well: the nets start elsewhere
    assert hashlib.sha256(read_bytes(seeded / "final/mask.net")).hexdigest() != runs["five"][0]


def test_train_zero_epochs_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert run("train", "--synthetic", "--config", cfg, "--epochs", 0,
               "--out", tmp_path / "o") == EXIT_CONFIG
    assert "epochs" in capsys.readouterr().err


def test_train_honours_the_stft_and_fdkf_sections(tmp_path, capsys):
    # a 256/128 transform has 129 bins; a 128-sample hop needs a shorter
    # window to stay within the loop delay
    data = json.loads(json.dumps(TINY_TRAIN))
    data["trainer"]["t_bptt"] = 16
    data.update({"stft": {"frame_len": 256, "hop": 128}, "fdkf": {"num_taps": 12}})
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert run("train", "--synthetic", "--config", cfg, "--out", out) == EXIT_OK
    capsys.readouterr()
    spec = RunConfig(data).suppressor()
    assert cli.load_checkpoint(str(out / "best"), spec)["mask"].output_size == 129
    record = json.loads((out / "final" / "checkpoint.json").read_text())
    assert record["suppressor"]["stft"]["frame_len"] == 256
    assert record["suppressor"]["fdkf"]["num_taps"] == 12
    # the same config accepts the checkpoint it trained
    assert run("eval", "--config", cfg, "--checkpoint", out / "best", "--scenes", 1,
               "--duration", 0.5, "--gains", "2", "--out", tmp_path / "ev") == EXIT_OK
    capsys.readouterr()
    rows = (tmp_path / "ev" / "report.csv").read_text().strip().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"none", "kalman", "neuralkalman"}


def test_train_builds_the_configured_filter(tmp_path, capsys, monkeypatch):
    built = []
    real_init = KalmanAhs.__init__

    def spy(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.filt.W.shape[-1])

    monkeypatch.setattr(KalmanAhs, "__init__", spy)
    data = dict(TINY_TRAIN, fdkf={"num_taps": 5})
    cfg = tmp_path / "taps.json"
    cfg.write_text(json.dumps(data))
    assert run("train", "--synthetic", "--config", cfg, "--out", tmp_path / "o") == EXIT_OK
    capsys.readouterr()
    assert len(built) == 2 and set(built) == {5}  # one training batch, one validation stack


def test_train_where_every_scene_howls_reports_no_mean_loss(tmp_path, capsys):
    # the configured detector fires on any output above 1e-6, so every scene
    # aborts at once and no window ever completes
    data = dict(TINY_TRAIN, detector={"amp_threshold": 1e-6, "run_length": 1})
    cfg = tmp_path / "touchy.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--synthetic", "--config", cfg, "--out", out) == EXIT_OK
    printed = capsys.readouterr().out
    assert "no scene completed, 2 howl aborts" in printed and "nan" not in printed
    events = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()
              if "scene" in line]
    assert [e["howl_abort"] for e in events] == [True, True]


def test_train_needs_a_speech_source(tmp_path, capsys):
    assert run("train", "--out", tmp_path / "o") == EXIT_CONFIG
    assert "synthetic" in capsys.readouterr().err


def test_train_on_wav_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(3)
    for i in range(2):
        write_wav(corpus / f"utt{i}.wav", 0.2 * rng.standard_normal(20000),
                  16000, fmt="pcm16")
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "run"
    assert run("train", "--corpus", corpus, "--config", cfg, "--out", out) == EXIT_OK
    capsys.readouterr()
    assert (out / "best" / "checkpoint.json").exists()
    # log is one JSON object per line
    lines = (out / "train_log.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line) for line in lines)


def test_empty_corpus_is_io_error(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    assert run("train", "--corpus", corpus, "--out", tmp_path / "o") == EXIT_IO
    capsys.readouterr()


# ---------------------------------------------------------------- eval


def test_eval_nonpositive_scenes_is_config_error(tmp_path, capsys):
    for count in (0, -3):
        assert run("eval", "--scenes", count, "--out", tmp_path / "o") == EXIT_CONFIG
        assert "--scenes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_takes_scene_length_from_sampler_duration(tmp_path, capsys):
    cfg = write_config(tmp_path / "short.json", {"sampler": {"duration": 0.5}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("eval", "--config", cfg, "--scenes", 1, "--gains", "2", "--out", a) == EXIT_OK
    assert run("eval", "--duration", 0.5, "--scenes", 1, "--gains", "2", "--out", b) == EXIT_OK
    capsys.readouterr()
    for name in ("report.csv", "summary.txt"):
        assert read_bytes(a / name) == read_bytes(b / name), name
    # 0.005 s is 80 samples, under the 192 samples synthetic speech smooths over
    cfg = write_config(tmp_path / "shorter.json", {"sampler": {"duration": 0.005}})
    assert run("eval", "--config", cfg, "--scenes", 1, "--gains", "2",
               "--out", tmp_path / "o") == EXIT_CONFIG
    assert "sampler: scene duration 0.005 s is 80 samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_has_four_gain_rows_per_variant_by_default(tmp_path, capsys):
    out = tmp_path / "ev"
    assert run("eval", "--out", out, "--scenes", 1, "--duration", 1.0) == EXIT_OK
    capsys.readouterr()
    rows = (out / "report.csv").read_text().strip().splitlines()[1:]
    by_variant = {}
    for row in rows:
        variant, gain = row.split(",")[:2]
        by_variant.setdefault(variant, []).append(float(gain))
    assert sorted(by_variant) == ["kalman", "none"]
    for gains in by_variant.values():
        assert sorted(gains) == [1.5, 2.0, 2.5, 3.0]
    assert (out / "summary.txt").exists()


def test_eval_with_checkpoint_adds_neural_variant(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    ckpt = tmp_path / "run"
    assert run("train", "--synthetic", "--config", cfg, "--out", ckpt) == EXIT_OK
    out = tmp_path / "ev"
    assert run("eval", "--out", out, "--checkpoint", ckpt / "best",
               "--scenes", 1, "--duration", 1.0, "--gains", "2") == EXIT_OK
    capsys.readouterr()
    rows = (out / "report.csv").read_text().strip().splitlines()[1:]
    variants = {row.split(",")[0] for row in rows}
    assert variants == {"none", "kalman", "neuralkalman"}


def test_eval_missing_checkpoint_is_io_error(tmp_path, capsys):
    assert run("eval", "--out", tmp_path / "o", "--checkpoint", tmp_path / "nope",
               "--scenes", 1, "--duration", 1.0) == EXIT_IO
    capsys.readouterr()
