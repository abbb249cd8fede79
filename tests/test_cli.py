"""Command-line paths: artifacts, determinism, ablation wiring, exit codes."""

import json
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import howlkit.cli as cli
from howlkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from howlkit.config import RunConfig
from howlkit.training import save_checkpoint
from howlkit.wavio import read_wav, write_wav


def run(*argv):
    return main([str(a) for a in argv])


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


TINY_TRAIN = {
    "trainer": {"epochs": 1, "scenes_per_epoch": 2, "batch_size": 2,
                "duration": 1.0, "validation_scenes": 1},
    "neural": {"mask_hidden": [8]},
}


# ---------------------------------------------------------------- plumbing


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
    data.update({"stft": {"frame_len": 256, "hop": 128}, "fdkf": {"num_bins": 129}})
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert run("train", "--synthetic", "--config", cfg, "--out", out) == EXIT_OK
    capsys.readouterr()
    assert cli.load_checkpoint(str(out / "best"))["mask"].output_size == 129


def test_train_builds_the_configured_filter(tmp_path, capsys, monkeypatch):
    built = []
    real_init = cli.KalmanAhs.__init__

    def spy(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.filt.W.shape[-1])

    monkeypatch.setattr(cli.KalmanAhs, "__init__", spy)
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
