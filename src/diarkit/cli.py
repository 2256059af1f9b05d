"""Command line interface: synth, diarize, score, dominance, features.

Exit codes: 0 success, 1 runtime failure inside a module, 2 usage or
validation error. The environment variable ``DIARKIT_SEED`` overrides the
default seed. Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import audio_io, dae, dominance, features, scoring, wpe
from .diarizer import DiarizerConfig, diarize
from .features import FeatureMatrix


class UsageError(Exception):
    pass


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline in one flat namespace. Stage-owned
    defaults are read from the stage configs; ``stage`` hands a field back
    to the stage config that has a field of the same name."""

    sample_rate: int = 8000
    pre_emphasis: float = features.MfccConfig.pre_emphasis
    window_sec: float = features.MfccConfig.window_sec
    hop_sec: float = features.MfccConfig.hop_sec
    n_fft: int = features.MfccConfig.n_fft
    n_mels: int = features.MfccConfig.n_mels
    n_coeffs: int = features.MfccConfig.n_coeffs
    splice_left: int = 5
    splice_right: int = 5
    feature_kind: str = "bnf"  # bnf | mfcc91
    bottleneck_dim: int = 21
    corruption_level: float = dae.TrainConfig.corruption_level
    corruption_kind: str = dae.TrainConfig.corruption_kind
    learning_rate: float = dae.TrainConfig.learning_rate
    momentum: float = dae.TrainConfig.momentum
    epochs: int = dae.TrainConfig.epochs
    batch_size: int = dae.TrainConfig.batch_size
    n_speakers: int = 4
    initial_states: int = DiarizerConfig.initial_states
    min_duration_sec: float = DiarizerConfig.min_duration_sec
    components_per_initial_segment: int = DiarizerConfig.components_per_initial_segment
    self_loop_prob: float = DiarizerConfig.self_loop_prob
    em_iters: int = DiarizerConfig.em_iters
    max_outer_iters: int = DiarizerConfig.max_outer_iters
    mode: str = "oracle-sad"  # oracle-sad | no-sad
    seed: int = DiarizerConfig.seed

    def stage(self, cls):
        """A stage config (``MfccConfig``, ``TrainConfig``, ``DiarizerConfig``)
        from the fields of the same name; the filterbank top and the no-SAD
        switch are derived, not keys."""
        values = dict(dataclasses.asdict(self), fmax_hz=self.sample_rate / 2.0, no_sad_mode=self.mode == "no-sad")
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})

    def validate(self):
        if self.feature_kind not in ("bnf", "mfcc91"):
            raise UsageError(f"unknown feature kind {self.feature_kind!r}")
        if self.mode not in ("oracle-sad", "no-sad"):
            raise UsageError(f"unknown mode {self.mode!r}")
        try:
            for cls in (features.MfccConfig, dae.TrainConfig, DiarizerConfig):
                self.stage(cls)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def load_config_file(path: str) -> dict:
    """key=value per line, '#' comments; unknown keys are rejected."""
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
            out[key] = value
    return out


def build_pipeline_config(args) -> PipelineConfig:
    """Precedence: command line flags > config file > defaults (with
    DIARKIT_SEED standing in for the default seed). Every pipeline flag
    stores into the argparse ``dest`` named after its config key."""
    cfg = PipelineConfig()
    file_keys = load_config_file(args.config) if args.config else {}
    for key, value in file_keys.items():
        try:
            setattr(cfg, key, type(getattr(cfg, key))(value))
        except ValueError as exc:
            raise UsageError(f"config key {key}: cannot parse {value!r}") from exc
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    env_seed = os.environ.get("DIARKIT_SEED")
    if env_seed is not None and args.seed is None and "seed" not in file_keys:
        cfg.seed = int(env_seed)
    cfg.validate()
    return cfg


def _atomic_write(path: str, payload: str | bytes):
    mode = "wb" if isinstance(payload, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-diarkit-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _heuristic_ns_mask(c0: np.ndarray, fraction: float = 0.15) -> np.ndarray:
    """Label the lowest-energy fraction of frames as non-speech, using the
    first cepstral coefficient as a frame energy proxy."""
    threshold = np.quantile(c0, fraction)
    return c0 > threshold


def extract_session_features(
    audio: audio_io.MultiStreamAudio,
    sad_segments: list[tuple] | None,
    cfg: PipelineConfig,
    net: dae.Network | None = None,
) -> tuple[FeatureMatrix, dae.Network | None]:
    """Feature stack shared by the subcommands: per-channel MFCC + CMVN,
    concatenation, then either splice + bottleneck network, or the raw
    concatenated features.

    Returns speech-only frames in oracle-SAD mode, or all frames with a
    speech mask attached in no-SAD mode (from the SAD file when given,
    otherwise from a low-energy heuristic).
    """
    mcfg = cfg.stage(features.MfccConfig)
    raw = [features.mfcc(ch, audio.sample_rate, mcfg) for ch in audio.channels]
    if sad_segments is not None:
        mask = features.speech_frame_mask(raw[0], sad_segments)
    else:
        if cfg.mode != "no-sad":
            raise UsageError("oracle-sad mode requires a SAD segments file")
        c0 = np.mean([f.data[:, 0] for f in raw], axis=0)
        mask = _heuristic_ns_mask(c0)
    normalized = [features.cmvn(f, mask) for f in raw]
    combined = dataclasses.replace(features.concat_streams(normalized), speech_mask=mask)

    if cfg.feature_kind == "mfcc91":
        staged = combined
    else:
        staged = features.splice(combined, cfg.splice_left, cfg.splice_right)
    if cfg.mode != "no-sad":
        staged = features.apply_sad(staged, sad_segments)

    if cfg.feature_kind == "mfcc91":
        return staged, None

    if net is None:
        net = dae.pretrain_stack(
            staged,
            cfg.stage(dae.TrainConfig),
            seed=cfg.seed,
            hidden_dim=combined.dim,
            bottleneck_dim=cfg.bottleneck_dim,
        )
    elif (net.input_dim, net.bottleneck_dim) != (staged.dim, cfg.bottleneck_dim):
        raise UsageError(
            f"stored network maps {net.input_dim} -> {net.bottleneck_dim} dims; "
            f"this config needs {staged.dim} -> {cfg.bottleneck_dim}"
        )
    return dae.bottleneck(net, staged), net


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    if not os.path.exists(args.script):
        raise UsageError(f"script file not found: {args.script}")
    with open(args.script, encoding="utf-8") as fh:
        script = audio_io.SessionScript.from_json(fh.read())
    seed = args.seed if args.seed is not None else int(os.environ.get("DIARKIT_SEED", 0))
    channels = args.channels
    delays = [args.max_delay_ms * c / max(1, channels - 1) for c in range(channels)]
    gains = [1.0 - 0.5 * c / max(1, channels - 1) for c in range(channels)]
    audio, reference = audio_io.synth_session(
        script, channels, delays, gains, noise_snr_db=args.snr_db, seed=seed, rate=args.rate
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for c, chan in enumerate(audio.channels):
        audio_io.write_wav(os.path.join(args.out_dir, f"ch{c}.wav"), chan, audio.sample_rate)
    ref_path = os.path.join(args.out_dir, "ref.rttm")
    scoring.rttm_write(reference, ref_path, file_id=args.file_id)
    sad = audio_io.sad_from_script(script)
    audio_io.write_segments(os.path.join(args.out_dir, "sad.txt"), sad)
    print(f"wrote {audio.channel_count} channels, ref.rttm, sad.txt to {args.out_dir}")
    return 0


def _load_inputs(args) -> tuple[PipelineConfig, audio_io.MultiStreamAudio, list[tuple] | None]:
    """Input step of ``diarize`` and ``features``: the config, the session
    audio at the configured rate, and the SAD segments if given."""
    for path in args.audio:
        if not os.path.exists(path):
            raise UsageError(f"audio file not found: {path}")
    if args.sad is None and args.mode is None:
        raise UsageError("either --sad FILE or --no-sad is required")
    cfg = build_pipeline_config(args)
    audio = audio_io.load_session(args.audio, target_rate=cfg.sample_rate)
    sad_segments = audio_io.read_segments(args.sad) if args.sad else None
    return cfg, audio, sad_segments


def cmd_diarize(args) -> int:
    cfg, audio, sad_segments = _load_inputs(args)
    net = None
    if args.dae_model and os.path.exists(args.dae_model):
        net = dae.load_network(args.dae_model)
    feats, net = extract_session_features(audio, sad_segments, cfg, net=net)
    if args.dae_model and net is not None and not os.path.exists(args.dae_model):
        dae.save_network(net, args.dae_model)

    hyp, meta = diarize(feats, cfg.stage(DiarizerConfig))
    file_id = args.file_id or os.path.splitext(os.path.basename(args.out))[0]
    _atomic_write(args.out, scoring.rttm_format(hyp, file_id=file_id))
    meta_path = args.meta or (os.path.splitext(args.out)[0] + ".meta.jsonl")
    meta_record = dict(meta)
    meta_record["config"] = dataclasses.asdict(cfg)
    _atomic_write(meta_path, json.dumps(meta_record) + "\n")
    print(f"wrote {args.out} ({len(hyp.speakers)} speakers, stop: {meta['stop_reason']})")
    return 0


def cmd_score(args) -> int:
    for path in (args.ref, args.hyp):
        if not os.path.exists(path):
            raise UsageError(f"file not found: {path}")
    ref = scoring.rttm_read(args.ref)
    hyp = scoring.rttm_read(args.hyp)
    breakdown = scoring.score_der(ref, hyp, collar_sec=args.collar)
    print(breakdown.report())
    print(f"DER {breakdown.der:.4f}")
    if args.json:
        _atomic_write(args.json, breakdown.to_json() + "\n")
    return 0


def cmd_dominance(args) -> int:
    for path in (args.hyp, args.audio):
        if not os.path.exists(path):
            raise UsageError(f"file not found: {path}")
    hyp_segments = scoring.rttm_read(args.hyp)
    audio = audio_io.load_session([args.audio], target_rate=args.rate)
    from .segments import DiarizationHypothesis

    hyp = DiarizationHypothesis(hyp_segments)
    energies = wpe.segment_energy(audio.channels[0], hyp.segments, sample_rate=audio.sample_rate)
    report = dominance.dominance_report(
        hyp, energies, segment_len_sec=args.segment_len, session_duration_sec=audio.duration_sec
    )
    _atomic_write(args.out, report.to_csv())
    print(f"wrote {args.out} ({report.n_segments} windows x {len(report.speakers)} speakers)")
    return 0


def cmd_features(args) -> int:
    cfg, audio, sad_segments = _load_inputs(args)
    feats, _ = extract_session_features(audio, sad_segments, cfg)
    features.write_features(args.out, feats)
    print(f"wrote {args.out}: {feats.n_frames} frames x {feats.dim} dims")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diarkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a scripted synthetic session")
    p.add_argument("script", help="session script (JSON)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--channels", type=int, default=7)
    p.add_argument("--snr-db", type=float, default=15.0)
    p.add_argument("--max-delay-ms", type=float, default=5.0)
    p.add_argument("--rate", type=int, default=8000)
    p.add_argument("--file-id", default="session")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("diarize", help="run the full diarization pipeline")
    p.add_argument("audio", nargs="+", help="one mono WAV per channel (or one multi-channel WAV)")
    p.add_argument("--sad", default=None, help="speech activity segments file")
    p.add_argument(
        "--no-sad", dest="mode", action="store_const", const="no-sad", help="model non-speech as an extra state"
    )
    p.add_argument("--speakers", dest="n_speakers", type=int, help="number of speakers (side information)")
    p.add_argument("--min-dur", dest="min_duration_sec", type=float, help="minimum turn duration in seconds")
    p.add_argument("--initial-states", type=int)
    p.add_argument(
        "--components", dest="components_per_initial_segment", type=int, help="GMM components per initial segment"
    )
    p.add_argument("--features", dest="feature_kind", choices=["bnf", "mfcc91"])
    p.add_argument("--epochs", type=int, default=None, help="training epochs per autoencoder layer")
    p.add_argument("--dae-model", default=None, help="reuse (or store) a trained network here")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--file-id", default=None)
    p.add_argument("--meta", default=None, help="metadata JSON-lines path")
    p.add_argument("--out", required=True, help="output RTTM path")
    p.set_defaults(func=cmd_diarize)

    p = sub.add_parser("score", help="diarization error rate between two RTTM files")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.0)
    p.add_argument("--json", default=None, help="also write the breakdown as JSON")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("dominance", help="per-speaker dominance scores from a hypothesis")
    p.add_argument("--hyp", required=True, help="hypothesis RTTM")
    p.add_argument("--audio", required=True, help="reference channel WAV")
    p.add_argument("--segment-len", type=float, default=300.0)
    p.add_argument("--rate", type=int, default=8000)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("features", help="dump staged features as flat binary")
    p.add_argument("audio", nargs="+")
    p.add_argument("--sad", default=None)
    p.add_argument("--no-sad", dest="mode", action="store_const", const="no-sad")
    p.add_argument("--stage", dest="feature_kind", choices=["bnf", "mfcc91"])
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # module-level runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
