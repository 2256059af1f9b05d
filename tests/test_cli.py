import dataclasses
import json
import os
import resource
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diarkit import audio_io, cli, config, dae, dominance, scoring, wpe
from diarkit.audio_io import SessionScript, VoiceSpec
from diarkit.config import Config
from diarkit.segments import DiarizationHypothesis, rttm_format, rttm_read
from test_dae import random_network, write_model

TWO_TURNS = DiarizationHypothesis([(0.0, 10.0, "A"), (10.0, 20.0, "B")])


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


@pytest.mark.parametrize(
    "field, value",
    [("resonances_hz", [float("nan"), 1500.0, 2500.0]), ("tilt_db_per_octave", float("inf")),
     ("f0_hz", -50.0), ("f0_hz", 0.0), ("f0_hz", float("nan")), ("total_duration_sec", -5.0), ("f0_hz", 0.5)],
)  # fmt: skip
def test_synth_bad_script_value_exits_1_writing_nothing(script_file, tmp_path, capsys, field, value):
    raw = json.loads(Path(script_file).read_text())
    if field == "total_duration_sec":
        raw[field] = value
    else:
        raw["speakers"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes and reads them
    out = tmp_path / "out"
    t0 = time.perf_counter()  # rendering time grows as 1 / f0: 0.5 Hz took 6.6 s before the floor
    assert cli.main(["synth", str(bad), str(out), "--channels", "1", "--seed", "3"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_f0_jittered_under_the_floor_at_once(script_file, tmp_path, capsys):
    # 40 Hz with 50% jitter renders down to 20 Hz, under the 30 Hz floor.
    raw = json.loads(Path(script_file).read_text())
    raw["speakers"][0].update(f0_hz=40.0, f0_jitter=0.5)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert cli.main(["synth", str(bad), str(out), "--channels", "1", "--seed", "3"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "f0_hz" in capsys.readouterr().err
    assert not out.exists()


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
    hyp = rttm_read(out)
    assert set(hyp.speakers) <= {"spk0", "spk1"}
    meta_path = out.replace(".rttm", ".meta.jsonl")
    meta = json.loads(open(meta_path).read())
    assert meta["target_speakers"] == 2
    assert meta["config"]["feature_kind"] == "mfcc91"
    ref = rttm_read(os.path.join(synth_dir, "ref.rttm"))
    der = scoring.score_der(ref, hyp).der
    assert der <= 0.30


def test_diarize_bnf_with_model_reuse(synth_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(dae, "EPOCHS", 2)
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


def test_config_mode_no_sad_equals_no_sad_flag(synth_dir, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("mode = no-sad\n")
    wavs = [os.path.join(synth_dir, f"ch{c}.wav") for c in range(2)]
    common = ["diarize", *wavs, "--speakers", "2", "--features", "mfcc91", "--seed", "1", "--file-id", "s"]
    by_flag, by_file = tmp_path / "flag.rttm", tmp_path / "file.rttm"
    assert cli.main([*common, "--no-sad", "--out", str(by_flag)]) == 0
    assert cli.main([*common, "--config", str(cfg_path), "--out", str(by_file)]) == 0
    assert by_file.read_text() == by_flag.read_text()


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


def test_score_reads_rttm_named_after_out_path_with_space(synth_dir, tmp_path):
    # The default file id is the --out name with its space made "_", so each
    # RTTM line keeps its 10 fields.
    out = tmp_path / "my hyp.rttm"
    wavs = [os.path.join(synth_dir, f"ch{c}.wav") for c in range(2)]
    sad = os.path.join(synth_dir, "sad.txt")
    argv = ["diarize", *wavs, "--sad", sad, "--speakers", "2", "--features", "mfcc91", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text().split()[1] == "my_hyp"
    assert cli.main(["score", "--ref", os.path.join(synth_dir, "ref.rttm"), "--hyp", str(out)]) == 0


def test_score_identical_files(synth_dir, capsys):
    ref = os.path.join(synth_dir, "ref.rttm")
    rc = cli.main(["score", "--ref", ref, "--hyp", ref])
    assert rc == 0
    out = capsys.readouterr().out
    assert "DER 0.0000" in out


def test_score_hand_worked_example(tmp_path, capsys):
    ref, hyp = str(tmp_path / "r.rttm"), str(tmp_path / "h.rttm")
    Path(ref).write_text(rttm_format(TWO_TURNS, "r"))
    Path(hyp).write_text(rttm_format(DiarizationHypothesis([(0.0, 12.0, "spk1"), (12.0, 20.0, "spk2")]), "h"))
    json_out = str(tmp_path / "der.json")
    rc = cli.main(["score", "--ref", ref, "--hyp", hyp, "--json", json_out])
    assert rc == 0
    assert "DER 0.1000" in capsys.readouterr().out
    payload = json.loads(open(json_out).read())
    assert abs(payload["der"] - 0.1) < 1e-12


def test_score_missing_file_exits_2(tmp_path):
    rc = cli.main(["score", "--ref", str(tmp_path / "a.rttm"), "--hyp", str(tmp_path / "b.rttm")])
    assert rc == 2


@pytest.mark.parametrize("tbeg, tdur", [("nan", "1.000"), ("1.000", "inf")])
def test_score_non_finite_hypothesis_time_exits_1(tmp_path, capsys, tbeg, tdur):
    ref, hyp = str(tmp_path / "r.rttm"), tmp_path / "h.rttm"
    Path(ref).write_text(rttm_format(TWO_TURNS, "r"))
    hyp.write_text(f"SPEAKER h 1 0.000 10.000 <NA> <NA> a <NA> <NA>\nSPEAKER h 1 {tbeg} {tdur} <NA> <NA> b <NA> <NA>\n")
    assert cli.main(["score", "--ref", ref, "--hyp", str(hyp)]) == 1
    assert "h.rttm: line 2: non-finite time fields" in capsys.readouterr().err


def test_score_negative_hypothesis_start_exits_1(tmp_path, capsys):
    ref, hyp = str(tmp_path / "r.rttm"), tmp_path / "h.rttm"
    Path(ref).write_text(rttm_format(TWO_TURNS, "r"))
    hyp.write_text("SPEAKER h 1 -5.000 10.000 <NA> <NA> a <NA> <NA>\n")
    json_out = tmp_path / "der.json"
    assert cli.main(["score", "--ref", ref, "--hyp", str(hyp), "--json", str(json_out)]) == 1
    assert "h.rttm: line 1: negative start time" in capsys.readouterr().err
    assert not json_out.exists()


def test_score_collar_over_all_reference_speech_exits_1(tmp_path, capsys):
    ref, hyp = str(tmp_path / "r.rttm"), str(tmp_path / "h.rttm")
    Path(ref).write_text(rttm_format(TWO_TURNS, "r"))
    Path(hyp).write_text(rttm_format(TWO_TURNS, "h"))
    json_out = tmp_path / "der.json"
    assert cli.main(["score", "--ref", ref, "--hyp", hyp, "--collar", "30", "--json", str(json_out)]) == 1
    assert "DER undefined" in capsys.readouterr().err
    assert not json_out.exists()


def test_diarize_at_16k_from_a_config_file(script_file, tmp_path):
    # At 16 kHz the 25 ms window is 400 samples, past the 256-point FFT of 8 kHz.
    session = tmp_path / "s16"
    assert cli.main(["synth", script_file, str(session), "--channels", "2", "--seed", "3", "--rate", "16000"]) == 0
    cfg_path = tmp_path / "sr16.cfg"
    cfg_path.write_text("sample_rate = 16000\n")
    out = tmp_path / "sr16.rttm"
    wavs = [str(session / f"ch{c}.wav") for c in range(2)]
    argv = ["diarize", *wavs, "--sad", str(session / "sad.txt"), "--speakers", "2", "--features", "mfcc91"]
    assert cli.main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert rttm_read(str(out)).segments
    meta = json.loads((tmp_path / "sr16.meta.jsonl").read_text())
    assert meta["config"]["sample_rate"] == 16000
    assert meta["stop_reason"] in ("reached_target_states", "no_positive_merge_gain")


def test_dominance_alternating_fixture(tmp_path, capsys):
    rate = 8000
    rng = np.random.default_rng(4)
    script = SessionScript(
        speakers=[VoiceSpec(f0_hz=110), VoiceSpec(f0_hz=170)],
        events=[(i % 2, 2.0 * i + 0.2, 1.6) for i in range(150)],
        total_duration_sec=310.0,
    )
    audio, ref = audio_io.synth_session(script, 1, [0.0], [1.0], 25.0, seed=5, rate=rate)
    wav = str(tmp_path / "ch0.wav")
    Path(wav).write_bytes(audio_io.wav_bytes(audio.channels[0], rate))
    hyp_path = str(tmp_path / "ref.rttm")
    Path(hyp_path).write_text(rttm_format(ref, "ref"))
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


def test_dominance_clips_rttm_rounding_overlaps(tmp_path):
    # RTTM's 3 decimals make b start 1 ms before a ends; that millisecond is
    # a's, so b speaks 0.999 s and the two speak 3 s in total.
    wav = str(tmp_path / "ch0.wav")
    Path(wav).write_bytes(audio_io.wav_bytes(np.random.default_rng(0).normal(0.0, 0.1, 4 * 8000), 8000))
    hyp_path = tmp_path / "hyp.rttm"
    hyp_path.write_text(
        "SPEAKER s 1 0.000 1.001 <NA> <NA> a <NA> <NA>\n"
        "SPEAKER s 1 1.000 1.000 <NA> <NA> b <NA> <NA>\n"
        "SPEAKER s 1 2.000 1.000 <NA> <NA> a <NA> <NA>\n"
    )
    csv_path = str(tmp_path / "dom.csv")
    assert cli.main(["dominance", "--hyp", str(hyp_path), "--audio", wav, "--out", csv_path]) == 0
    rows = [line.split(",") for line in open(csv_path).read().split()[1:]]
    spts = {row[1]: float(row[3]) for row in rows}
    assert spts == {"a": 2.001, "b": 0.999}


def test_dominance_rttm_end_rounded_past_audio_end(tmp_path):
    # 239,997 samples at 8 kHz last 29.999625 s; the RTTM's 3 decimals put
    # b's end at 30.000 s, half a millisecond past the audio.
    wav = str(tmp_path / "ch0.wav")
    Path(wav).write_bytes(audio_io.wav_bytes(np.random.default_rng(1).normal(0.0, 0.1, 239_997), 8000))
    hyp_path = tmp_path / "hyp.rttm"
    hyp_path.write_text(
        "SPEAKER s 1 0.000 10.000 <NA> <NA> a <NA> <NA>\n"
        "SPEAKER s 1 10.000 20.000 <NA> <NA> b <NA> <NA>\n"
    )
    csv_path = tmp_path / "dom.csv"
    assert cli.main(["dominance", "--hyp", str(hyp_path), "--audio", wav, "--out", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().split()[1:]]
    assert [row[1] for row in rows] == ["a", "b"]


def test_dominance_at_16k_is_the_library_report(tmp_path):
    # At 16 kHz the 64 leaves are 125 Hz wide, so the 50-2000 Hz band is
    # leaves 0-15; the CSV is the library's report on the same samples.
    rate = 16000
    script = SessionScript(
        speakers=[VoiceSpec(f0_hz=110), VoiceSpec(f0_hz=170)],
        events=[(i % 2, 2.0 * i + 0.2, 1.6) for i in range(20)],
        total_duration_sec=40.0,
    )
    audio, ref = audio_io.synth_session(script, 1, [0.0], [1.0], 25.0, seed=5, rate=rate)
    ch0 = audio.channels[0].astype(np.float32)
    wav = tmp_path / "ch0.wav"
    wav.write_bytes(audio_io.wav_bytes(ch0, rate))
    hyp_path = tmp_path / "ref.rttm"
    hyp_path.write_text(rttm_format(ref, "ref"))
    csv_path = tmp_path / "dom.csv"
    argv = ["dominance", "--hyp", str(hyp_path), "--audio", str(wav), "--rate", "16000", "--segment-len", "10"]
    assert cli.main([*argv, "--out", str(csv_path)]) == 0
    hyp = rttm_read(str(hyp_path))
    energies = wpe.segment_energy(ch0, hyp.segments, rate)
    report = dominance.dominance_report(hyp, energies, segment_len_sec=10.0, session_duration_sec=len(ch0) / rate)
    assert report.n_segments == 4
    assert csv_path.read_bytes() == report.to_csv().encode()
    start, end = hyp.segments[0][:2]
    tree = wpe.wpt(ch0[round(start * rate) : round(end * rate)], rate)
    assert energies[0] == sum(float(np.dot(leaf, leaf)) for leaf in tree.leaves[:16])


def test_dominance_memory_stays_near_one_float32_copy(tmp_path):
    # The float32 channel is read once and each segment is converted on its
    # own, so the traced peak stays near the file's 4 bytes per sample; a
    # float64 copy of the whole channel alone would add 8.
    n = 60 * 8000
    wav = tmp_path / "ch0.wav"
    wav.write_bytes(audio_io.wav_bytes(np.random.default_rng(2).normal(0.0, 0.1, n), 8000))
    hyp = DiarizationHypothesis([(2.0 * i, 2.0 * i + 2.0, "ab"[i % 2]) for i in range(30)])
    hyp_path = tmp_path / "hyp.rttm"
    hyp_path.write_text(rttm_format(hyp, "s"))
    tracemalloc.start()
    try:
        rc = cli.main(["dominance", "--hyp", str(hyp_path), "--audio", str(wav), "--out", str(tmp_path / "d.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak / n < 9.0, f"{peak / n:.1f} bytes per sample"


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
    f, hop_sec = feat_mod.read_features(out)
    assert f.dim == 26  # 2 channels x 13
    assert abs(hop_sec - config.HOP_SEC) < 1e-9


def test_config_file_and_flag_precedence(synth_dir, tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("# pipeline overrides\nseed = 4\nmin_duration_sec = 1.0\n")
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
    assert meta["config"]["seed"] == 4  # from file
    assert meta["config"]["min_duration_sec"] == 0.5  # flag wins


# The fixed front end and frame grid, the DAE recipe, the HMM self-loop
# probability, the EM budget and the GMM size of an initial state, each at
# the value its module keeps as a constant.
CONSTANT_LINES = [
    "pre_emphasis = 0.97", "n_mels = 26", "n_coeffs = 13", "splice_left = 5", "splice_right = 5",
    "window_sec = 0.025", "hop_sec = 0.01", "momentum = 0.05", "self_loop_prob = 0.9", "em_iters = 5",
    "bottleneck_dim = 21", "corruption_level = 0.2", "learning_rate = 0.001", "epochs = 10",
    "batch_size = 256", "components_per_initial_segment = 2",
]  # fmt: skip


# Keys that are gone: corruption is always additive Gaussian noise, the FFT
# size follows from the window, merging runs to the speaker count, and the
# values above are constants.
@pytest.mark.parametrize(
    "line",
    ["corruption_kind = masking", "n_fft = 8", "max_outer_iters = -1", *CONSTANT_LINES],
    ids=lambda line: line.split()[0],
)
def test_corruption_kind_is_not_a_key(tmp_path, capsys, line):
    key = line.split()[0]
    cfg_path = tmp_path / "old.cfg"
    cfg_path.write_text(line + "\n")
    with pytest.raises(cli.UsageError, match=f"unknown config key '{key}'"):
        cli.load_config_file(str(cfg_path))
    with pytest.raises(TypeError, match=key):
        Config(**{key: 8})
    wav = tmp_path / "never_read.wav"
    wav.write_bytes(b"")
    out = tmp_path / "x.rttm"
    assert cli.main(["diarize", str(wav), "--sad", str(wav), "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


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


def test_synth_seed_defaults_to_zero(script_file, tmp_path, monkeypatch):
    # The seed has two homes, --seed and the config file; the environment
    # is not one of them.
    monkeypatch.setenv("DIARKIT_SEED", "1")
    runs = {"default": [], "zero": ["--seed", "0"], "one": ["--seed", "1"]}
    for name, flags in runs.items():
        assert cli.main(["synth", script_file, str(tmp_path / name), "--channels", "1", *flags]) == 0
    default, zero, one = ((tmp_path / name / "ch0.wav").read_bytes() for name in runs)
    assert default == zero != one


# ------------------------------------------------------------ config contract

CONFIG_KEYS = {"sample_rate", "feature_kind", "mode", "n_speakers", "min_duration_sec", "initial_states", "seed"}

# Flags of the pipeline subcommands that name inputs and outputs, not keys.
IO_DESTS = {"help", "audio", "sad", "config", "dae_model", "file_id", "out"}


def _subparser(name):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[name]


def _parse(*argv):
    return cli.build_pipeline_config(cli.build_parser().parse_args(list(argv)))


def _config_types():
    return {f.name: type(f.default) for f in dataclasses.fields(Config)}


def test_config_keys_are_the_flat_namespace():
    assert set(_config_types()) == CONFIG_KEYS


@pytest.mark.parametrize("command", ["diarize", "features"])
def test_every_pipeline_flag_dest_is_a_config_key(command):
    keys = _config_types()
    for action in _subparser(command)._actions:
        if action.dest not in IO_DESTS:
            assert action.dest in keys, action.option_strings


def test_flags_set_their_keys(monkeypatch):
    monkeypatch.setenv("DIARKIT_SEED", "7")  # not read: the default seed stays 0
    cfg = _parse(
        "diarize", "a.wav", "--no-sad", "--speakers", "3", "--min-dur", "0.7", "--initial-states", "10",
        "--features", "mfcc91", "--seed", "5", "--out", "x.rttm",
    )  # fmt: skip
    assert (cfg.mode, cfg.n_speakers, cfg.min_duration_sec, cfg.initial_states) == ("no-sad", 3, 0.7, 10)
    assert (cfg.feature_kind, cfg.seed) == ("mfcc91", 5)
    assert _parse("diarize", "a.wav", "--out", "x.rttm") == Config()


def test_stage_flag_beats_config_file(tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("feature_kind = mfcc91\n")
    assert _parse("features", "a.wav", "--config", cfg_path, "--out", "f.bin").feature_kind == "mfcc91"
    assert _parse("features", "a.wav", "--config", cfg_path, "--stage", "bnf", "--out", "f.bin").feature_kind == "bnf"


# One bad value per line: each must exit 2 from the CLI and raise a
# ValueError naming its key from Config itself.
BAD_CONFIG_LINES = [
    "min_duration_sec = 0", "sample_rate = 0", "sample_rate = 40", "initial_states = 0",
    "min_duration_sec = nan", "min_duration_sec = inf",
    "n_speakers = 1", "feature_kind = wav", "mode = vad", "seed = -1",
]  # fmt: skip

# Keys Config no longer has: a line setting one is refused as an unknown key,
# whether its value was once out of range or is the constant's own.
GONE_KEY_LINES = [
    "n_fft = 8", "max_outer_iters = -1", "self_loop_prob = 1.5", "splice_left = -7", "splice_right = -1",
    "momentum = 1", "momentum = -0.1", "n_coeffs = 0", "n_coeffs = 40", "n_mels = 0", "pre_emphasis = nan",
    "window_sec = 0", "hop_sec = 0", "hop_sec = -0.01", "em_iters = -2",
    "learning_rate = -1", "learning_rate = nan", "bottleneck_dim = 0", "components_per_initial_segment = 0",
    "epochs = 0", "epochs = -1", "batch_size = 0", "corruption_level = 1.5",
    *CONSTANT_LINES,
]  # fmt: skip


@pytest.mark.parametrize("line", BAD_CONFIG_LINES + GONE_KEY_LINES)
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


@pytest.mark.parametrize("line", BAD_CONFIG_LINES + GONE_KEY_LINES)
def test_invalid_config_value_raises_naming_the_key(line):
    key, value = line.split(" = ")
    types = _config_types()
    if key not in types:
        with pytest.raises(TypeError, match=key):
            Config(**{key: value})
        return
    with pytest.raises(ValueError, match=key):
        Config(**{key: types[key](value)})


@pytest.mark.parametrize(
    "flag, value",
    [("--segment-len", "0"), ("--segment-len", "-5"), ("--segment-len", "nan"), ("--segment-len", "1e-6"),
     ("--rate", "0"), ("--rate", "-8000"), ("--rate", "7")],
)  # fmt: skip
def test_dominance_bad_window_or_rate_exits_2(tmp_path, capsys, flag, value):
    empty = tmp_path / "never_read"
    empty.write_bytes(b"")  # validation must come before the RTTM and audio are read
    out = tmp_path / "dom.csv"
    rc = cli.main(["dominance", "--hyp", str(empty), "--audio", str(empty), flag, value, "--out", str(out)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims", [(286, 8), (100, 21)], ids=["bottleneck", "input"])
def test_dae_model_must_fit_the_config(synth_dir, tmp_path, capsys, dims):
    # Two channels of 13 MFCCs spliced +-5 frames: the session needs 286 -> 21.
    model = str(tmp_path / "net.sdae")
    Path(model).write_bytes(dae.network_bytes(random_network(dims[0], 26, dims[1], seed=0)))
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
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    assert "stored network" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "hyp.meta.jsonl").exists()


def test_dae_model_with_another_layout_refused(synth_dir, tmp_path):
    # Four layer sizes: the input (286) and the third size (21) would pass
    # the fit check, but the file holds only three layers.
    model = str(tmp_path / "net.sdae")
    write_model(model, (286, 91, 21, 91))
    wavs = [os.path.join(synth_dir, f"ch{c}.wav") for c in range(2)]
    out = tmp_path / "hyp.rttm"
    sad = os.path.join(synth_dir, "sad.txt")
    rc = cli.main(["diarize", *wavs, "--sad", sad, "--speakers", "2", "--dae-model", model, "--out", str(out)])
    assert rc != 0
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sad", "--config"])
def test_missing_sad_or_config_file_exits_2(tmp_path, capsys, flag):
    wav = tmp_path / "never_read.wav"
    wav.write_bytes(b"")  # the check must come before the audio is loaded
    out = tmp_path / "x.rttm"
    argv = ["diarize", str(wav), "--no-sad", flag, str(tmp_path / "missing"), "--out", str(out)]
    assert cli.main(argv) == 2
    assert "missing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, named",
    [("score", "--collar", "-1", "--collar"), ("score", "--collar", "nan", "--collar"),
     ("score", "--collar", "inf", "--collar"), ("synth", "--channels", "0", "--channels"),
     ("synth", "--max-delay-ms", "100", "--max-delay-ms"), ("synth", "--max-delay-ms", "-1", "--max-delay-ms"),
     ("synth", "--rate", "0", "--rate"), ("diarize", "--min-dur", "nan", "min_duration_sec"),
     ("diarize", "--min-dur", "inf", "min_duration_sec"), ("synth", "--snr-db", "nan", "--snr-db"),
     ("synth", "--snr-db", "inf", "--snr-db"), ("synth", "--snr-db", "-inf", "--snr-db"),
     ("synth", "--seed", "-1", "seed"), ("diarize", "--seed", "-1", "seed"),
     ("synth", "--file-id", "", "--file-id"), ("synth", "--file-id", "a b", "--file-id"),
     ("diarize", "--file-id", "", "--file-id"), ("diarize", "--file-id", "a\tb", "--file-id"),
     # Flags that are gone: the DAE epochs and GMM size are constants, and
     # the meta JSONL is always written beside the --out RTTM.
     ("diarize", "--epochs", "1", "--epochs"), ("diarize", "--components", "2", "--components"),
     ("diarize", "--meta", "m.jsonl", "--meta")],
)  # fmt: skip
def test_usage_errors_exit_2(script_file, tmp_path, capsys, command, flag, value, named):
    empty = tmp_path / "never_read"
    empty.write_bytes(b"")  # validation must come before any input is read
    out = tmp_path / "out"
    if command == "score":
        argv = ["score", "--ref", str(empty), "--hyp", str(empty), "--json", str(out)]
    elif command == "synth":
        argv = ["synth", script_file, str(out)]
    else:
        argv = ["diarize", str(empty), "--sad", str(empty), "--out", str(out)]
    assert cli.main([*argv, flag, value]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["diarize", "features", "dominance"])
def test_non_finite_audio_exits_1_naming_the_file(tmp_path, capsys, command):
    samples = np.random.default_rng(0).normal(0.0, 0.1, 16000).astype(np.float32)
    samples[4000] = np.nan
    wav = str(tmp_path / "nan.wav")
    Path(wav).write_bytes(audio_io.wav_bytes(samples, 8000))
    sad = tmp_path / "sad.txt"
    sad.write_text("0.0 2.0\n")
    hyp = tmp_path / "hyp.rttm"
    hyp.write_text("SPEAKER s 1 0.000 2.000 <NA> <NA> A <NA> <NA>\n")
    out = tmp_path / "out"
    argv = {
        "diarize": ["diarize", wav, "--sad", str(sad), "--speakers", "2", "--out", str(out)],
        "features": ["features", wav, "--sad", str(sad), "--out", str(out)],
        "dominance": ["dominance", "--hyp", str(hyp), "--audio", wav, "--out", str(out)],
    }[command]
    assert cli.main(argv) == 1
    assert f"non-finite samples in {wav!r}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ write policy


def test_every_output_gets_the_umask_mode(tmp_path, monkeypatch):
    # Each file a subcommand writes is created the way open(path, "w")
    # creates it: mode 0666 less the umask.
    monkeypatch.setattr(dae, "EPOCHS", 1)
    script = tmp_path / "session.json"
    script.write_text(audio_io.demo_script(2, 20.0, seed=5).to_json())
    out = tmp_path / "out"
    wavs = [str(out / "synth" / f"ch{c}.wav") for c in range(2)]
    sad, ref, hyp = str(out / "synth" / "sad.txt"), str(out / "synth" / "ref.rttm"), str(out / "hyp.rttm")
    runs = [
        ["synth", str(script), str(out / "synth"), "--channels", "2", "--seed", "3"],
        ["diarize", *wavs, "--sad", sad, "--speakers", "2", "--dae-model", str(out / "net.bin"), "--out", hyp],
        ["score", "--ref", ref, "--hyp", hyp, "--json", str(out / "der.json")],
        ["dominance", "--hyp", hyp, "--audio", wavs[0], "--out", str(out / "dom.csv")],
        ["features", *wavs, "--sad", sad, "--stage", "mfcc91", "--out", str(out / "f.bin")],
    ]  # fmt: skip
    old_umask = os.umask(0o022)
    try:
        for argv in runs:
            assert cli.main(argv) == 0, argv[0]
    finally:
        os.umask(old_umask)
    modes = {str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode) for p in out.rglob("*") if p.is_file()}
    assert sorted(modes) == [
        "der.json", "dom.csv", "f.bin", "hyp.meta.jsonl", "hyp.rttm", "net.bin",
        "synth/ch0.wav", "synth/ch1.wav", "synth/ref.rttm", "synth/sad.txt",
    ]  # fmt: skip
    assert set(modes.values()) == {0o644}, modes


def test_failed_model_save_leaves_no_file(synth_dir, tmp_path):
    # A model write cut off by the file-size limit leaves nothing behind, so
    # the next run trains and stores the model instead of failing to load a
    # truncated one.
    model = tmp_path / "m.bin"
    wavs = [os.path.join(synth_dir, f"ch{c}.wav") for c in range(2)]
    sad = os.path.join(synth_dir, "sad.txt")
    # One training epoch, so the child trains fast.
    main = "import sys; from diarkit import cli, dae; dae.EPOCHS = 1; sys.exit(cli.main(sys.argv[1:]))"
    argv = [sys.executable, "-c", main, "diarize", *wavs, "--sad", sad, "--speakers", "2"]
    argv += ["--dae-model", str(model), "--out", str(tmp_path / "hyp.rttm")]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024, 64 * 1024))

    failed = subprocess.run(argv, env=env, preexec_fn=limit_file_size, capture_output=True, text=True)
    assert failed.returncode == 1, failed.stderr
    assert "File too large" in failed.stderr
    assert os.listdir(tmp_path) == []
    rerun = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert rerun.returncode == 0, rerun.stderr
    assert model.stat().st_size > 64 * 1024
