import dataclasses
import json
import os

import numpy as np
import pytest

from diarkit import audio_io, cli, dae, scoring
from diarkit.audio_io import SessionScript, VoiceSpec


@pytest.fixture(scope="module")
def script_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("script")
    script = audio_io.demo_script(2, 60.0, seed=11, turn_range=(2.0, 5.0), gap_range=(0.3, 0.7))
    path = d / "session.json"
    path.write_text(script.to_json())
    return str(path)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory, script_file):
    out = str(tmp_path_factory.mktemp("synth"))
    rc = cli.main(["synth", script_file, out, "--channels", "2", "--seed", "3"])
    assert rc == 0
    return out


def test_synth_writes_expected_files(synth_dir):
    names = sorted(os.listdir(synth_dir))
    assert names == ["ch0.wav", "ch1.wav", "ref.rttm", "sad.txt"]


def test_synth_missing_script_exits_2(tmp_path, capsys):
    rc = cli.main(["synth", str(tmp_path / "nope.json"), str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_synth_deterministic_bytes(script_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["synth", script_file, a, "--channels", "2", "--seed", "9"]) == 0
    assert cli.main(["synth", script_file, b, "--channels", "2", "--seed", "9"]) == 0
    for name in ("ch0.wav", "ref.rttm", "sad.txt"):
        with open(os.path.join(a, name), "rb") as f1, open(os.path.join(b, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_diarize_end_to_end_mfcc(synth_dir, tmp_path):
    out = str(tmp_path / "hyp.rttm")
    rc = cli.main(
        [
            "diarize",
            os.path.join(synth_dir, "ch0.wav"),
            os.path.join(synth_dir, "ch1.wav"),
            "--sad",
            os.path.join(synth_dir, "sad.txt"),
            "--speakers",
            "2",
            "--min-dur",
            "0.5",
            "--features",
            "mfcc91",
            "--seed",
            "1",
            "--out",
            out,
        ]
    )
    assert rc == 0
    hyp = scoring.rttm_read(out)
    assert {lab for _, _, lab in hyp} <= {"spk0", "spk1"}
    meta_path = out.replace(".rttm", ".meta.jsonl")
    meta = json.loads(open(meta_path).read())
    assert meta["target_speakers"] == 2
    assert meta["config"]["feature_kind"] == "mfcc91"
    ref = scoring.rttm_read(os.path.join(synth_dir, "ref.rttm"))
    der = scoring.score_der(ref, hyp).der
    assert der <= 0.30


def test_diarize_bnf_with_model_reuse(synth_dir, tmp_path):
    out = str(tmp_path / "hyp.rttm")
    model = str(tmp_path / "net.sdae")
    args = [
        "diarize",
        os.path.join(synth_dir, "ch0.wav"),
        os.path.join(synth_dir, "ch1.wav"),
        "--sad",
        os.path.join(synth_dir, "sad.txt"),
        "--speakers",
        "2",
        "--epochs",
        "2",
        "--dae-model",
        model,
        "--seed",
        "1",
        "--out",
        out,
    ]
    assert cli.main(args) == 0
    assert os.path.exists(model)
    first = open(out).read()
    assert cli.main(args) == 0  # second run loads the stored network
    assert open(out).read() == first


def test_diarize_requires_sad_choice(synth_dir, tmp_path, capsys):
    rc = cli.main(
        ["diarize", os.path.join(synth_dir, "ch0.wav"), "--speakers", "2", "--out", str(tmp_path / "x.rttm")]
    )
    assert rc == 2


def test_diarize_single_speaker_rejected(synth_dir, tmp_path):
    rc = cli.main(
        [
            "diarize",
            os.path.join(synth_dir, "ch0.wav"),
            "--sad",
            os.path.join(synth_dir, "sad.txt"),
            "--speakers",
            "1",
            "--out",
            str(tmp_path / "x.rttm"),
        ]
    )
    assert rc == 2


def test_score_identical_files(synth_dir, capsys):
    ref = os.path.join(synth_dir, "ref.rttm")
    rc = cli.main(["score", "--ref", ref, "--hyp", ref])
    assert rc == 0
    out = capsys.readouterr().out
    assert "DER 0.0000" in out


def test_score_hand_worked_example(tmp_path, capsys):
    ref, hyp = str(tmp_path / "r.rttm"), str(tmp_path / "h.rttm")
    scoring.rttm_write([(0.0, 10.0, "A"), (10.0, 20.0, "B")], ref)
    scoring.rttm_write([(0.0, 12.0, "spk1"), (12.0, 20.0, "spk2")], hyp)
    json_out = str(tmp_path / "der.json")
    rc = cli.main(["score", "--ref", ref, "--hyp", hyp, "--json", json_out])
    assert rc == 0
    assert "DER 0.1000" in capsys.readouterr().out
    payload = json.loads(open(json_out).read())
    assert abs(payload["der"] - 0.1) < 1e-12


def test_score_missing_file_exits_2(tmp_path):
    rc = cli.main(["score", "--ref", str(tmp_path / "a.rttm"), "--hyp", str(tmp_path / "b.rttm")])
    assert rc == 2


def test_dominance_alternating_fixture(tmp_path, capsys):
    rate = 8000
    rng = np.random.default_rng(4)
    script = SessionScript(
        speakers=[VoiceSpec(f0_hz=110), VoiceSpec(f0_hz=170)],
        events=[(i % 2, 2.0 * i + 0.2, 1.6) for i in range(150)],
        total_duration_sec=310.0,
    )
    audio, ref = audio_io.synth_session(script, 1, [0.0], [1.0], 25.0, seed=5)
    wav = str(tmp_path / "ch0.wav")
    audio_io.write_wav(wav, audio.channels[0], rate)
    hyp_path = str(tmp_path / "ref.rttm")
    scoring.rttm_write(ref, hyp_path)
    csv_path = str(tmp_path / "dom.csv")
    rc = cli.main(["dominance", "--hyp", hyp_path, "--audio", wav, "--out", csv_path])
    assert rc == 0
    lines = open(csv_path).read().strip().split("\n")
    n_windows = 2  # 310 s -> two windows
    assert len(lines) == 1 + n_windows * 2
    header = lines[0].split(",")
    ds_col = header.index("ds")
    first_window = [line.split(",") for line in lines[1:3]]
    ds = [float(row[ds_col]) for row in first_window]
    assert abs(ds[0] - ds[1]) < 0.02


def test_features_dump_command(synth_dir, tmp_path):
    from diarkit import features as feat_mod

    out = str(tmp_path / "feats.bin")
    rc = cli.main(
        [
            "features",
            os.path.join(synth_dir, "ch0.wav"),
            os.path.join(synth_dir, "ch1.wav"),
            "--sad",
            os.path.join(synth_dir, "sad.txt"),
            "--stage",
            "mfcc91",
            "--out",
            out,
        ]
    )
    assert rc == 0
    f = feat_mod.read_features(out)
    assert f.dim == 26  # 2 channels x 13


def test_config_file_and_flag_precedence(synth_dir, tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("# pipeline overrides\nepochs = 1\nmin_duration_sec = 1.0\n")
    out = str(tmp_path / "hyp.rttm")
    rc = cli.main(
        [
            "diarize",
            os.path.join(synth_dir, "ch0.wav"),
            "--sad",
            os.path.join(synth_dir, "sad.txt"),
            "--speakers",
            "2",
            "--features",
            "mfcc91",
            "--min-dur",
            "0.5",
            "--config",
            cfg_path,
            "--out",
            out,
        ]
    )
    assert rc == 0
    meta = json.loads(open(out.replace(".rttm", ".meta.jsonl")).read())
    assert meta["config"]["epochs"] == 1  # from file
    assert meta["config"]["min_duration_sec"] == 0.5  # flag wins


def test_config_unknown_key_rejected(synth_dir, tmp_path):
    cfg_path = str(tmp_path / "bad.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("warp_factor = 9\n")
    rc = cli.main(
        [
            "diarize",
            os.path.join(synth_dir, "ch0.wav"),
            "--sad",
            os.path.join(synth_dir, "sad.txt"),
            "--speakers",
            "2",
            "--config",
            cfg_path,
            "--out",
            str(tmp_path / "x.rttm"),
        ]
    )
    assert rc == 2


def test_env_seed_override(script_file, tmp_path, monkeypatch):
    monkeypatch.setenv("DIARKIT_SEED", "77")
    a = str(tmp_path / "a")
    assert cli.main(["synth", script_file, a, "--channels", "1"]) == 0
    monkeypatch.setenv("DIARKIT_SEED", "78")
    b = str(tmp_path / "b")
    assert cli.main(["synth", script_file, b, "--channels", "1"]) == 0
    with open(os.path.join(a, "ch0.wav"), "rb") as f1, open(os.path.join(b, "ch0.wav"), "rb") as f2:
        assert f1.read() != f2.read()


# ------------------------------------------------------------ config contract

CONFIG_KEYS = {
    "sample_rate", "pre_emphasis", "window_sec", "hop_sec", "n_fft", "n_mels", "n_coeffs",
    "splice_left", "splice_right", "feature_kind", "bottleneck_dim",
    "corruption_level", "corruption_kind", "learning_rate", "momentum", "epochs", "batch_size",
    "n_speakers", "initial_states", "min_duration_sec", "components_per_initial_segment",
    "self_loop_prob", "em_iters", "max_outer_iters", "mode", "seed",
}  # fmt: skip

# Flags of the pipeline subcommands that name inputs and outputs, not keys.
IO_DESTS = {"help", "audio", "sad", "config", "dae_model", "file_id", "meta", "out"}


def _subparser(name):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[name]


def _parse(*argv):
    return cli.build_pipeline_config(cli.build_parser().parse_args(list(argv)))


def test_config_keys_are_the_flat_namespace():
    assert {f.name for f in dataclasses.fields(cli.PipelineConfig)} == CONFIG_KEYS


@pytest.mark.parametrize("command", ["diarize", "features"])
def test_every_pipeline_flag_dest_is_a_config_key(command):
    for action in _subparser(command)._actions:
        if action.dest not in IO_DESTS:
            assert action.dest in CONFIG_KEYS, action.option_strings


def test_flags_set_their_keys(monkeypatch):
    monkeypatch.delenv("DIARKIT_SEED", raising=False)
    cfg = _parse(
        "diarize", "a.wav", "--no-sad", "--speakers", "3", "--min-dur", "0.7", "--initial-states", "10",
        "--components", "3", "--features", "mfcc91", "--epochs", "2", "--seed", "5", "--out", "x.rttm",
    )  # fmt: skip
    assert (cfg.mode, cfg.n_speakers, cfg.min_duration_sec, cfg.initial_states) == ("no-sad", 3, 0.7, 10)
    assert (cfg.components_per_initial_segment, cfg.feature_kind, cfg.epochs, cfg.seed) == (3, "mfcc91", 2, 5)
    assert _parse("diarize", "a.wav", "--out", "x.rttm") == cli.PipelineConfig()


def test_stage_flag_beats_config_file(tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("feature_kind = mfcc91\n")
    assert _parse("features", "a.wav", "--config", cfg_path, "--out", "f.bin").feature_kind == "mfcc91"
    assert _parse("features", "a.wav", "--config", cfg_path, "--stage", "bnf", "--out", "f.bin").feature_kind == "bnf"


@pytest.mark.parametrize("line", ["learning_rate = -1", "self_loop_prob = 1.5", "min_duration_sec = 0"])
def test_invalid_stage_value_in_config_exits_2(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    wav = tmp_path / "never_read.wav"
    wav.write_bytes(b"")  # validation must come before the audio is loaded
    out = tmp_path / "x.rttm"
    rc = cli.main(["diarize", str(wav), "--sad", str(wav), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims", [(286, 21), (100, 8)], ids=["bottleneck", "input"])
def test_dae_model_must_fit_the_config(synth_dir, tmp_path, capsys, dims):
    # Two channels of 13 MFCCs spliced +-5 frames: the config needs 286 -> 8.
    model = str(tmp_path / "net.sdae")
    dae.save_network(dae.random_network(dims[0], 26, dims[1], seed=0), model)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("bottleneck_dim = 8\n")
    out = tmp_path / "hyp.rttm"
    rc = cli.main(
        [
            "diarize",
            os.path.join(synth_dir, "ch0.wav"),
            os.path.join(synth_dir, "ch1.wav"),
            "--sad",
            os.path.join(synth_dir, "sad.txt"),
            "--speakers",
            "2",
            "--dae-model",
            model,
            "--config",
            str(cfg_path),
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    assert "stored network" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "hyp.meta.jsonl").exists()
