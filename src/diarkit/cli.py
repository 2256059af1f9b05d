"""Command line interface: synth, diarize, score, dominance, features.

Exit codes: 0 success, 1 runtime failure inside a module, 2 usage or
validation error. Every file a subcommand writes is written atomically
(temp file + rename), with the mode the umask gives a new file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from . import audio_io, dae, dominance, features, scoring, wpe
from .config import Config
from .diarizer import diarize
from .features import FeatureMatrix
from .segments import rttm_format, rttm_read


class UsageError(Exception):
    pass


def load_config_file(path: str) -> dict:
    """key=value per line, '#' comments; unknown keys are rejected. Each
    value is parsed as the type of its key's default."""
    types = {f.name: type(f.default) for f in dataclasses.fields(Config)}
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
            try:
                out[key] = types[key](value)
            except ValueError as exc:
                raise UsageError(f"config key {key}: cannot parse {value!r}") from exc
    return out


def build_pipeline_config(args) -> Config:
    """Precedence: command line flags > config file > defaults. Every
    pipeline flag stores into the argparse ``dest`` named after its config
    key; the DAE recipe and the GMM size are constants of ``dae`` and
    ``diarizer``, so a file that names one is refused as an unknown key."""
    values = load_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(Config):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    try:
        return Config(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_file_id(file_id: str):
    """An RTTM field is one whitespace-free token, or the file cannot be read
    back."""
    if file_id.split() != [file_id]:
        raise UsageError(f"--file-id must be non-empty and hold no whitespace, got {file_id!r}")


def _atomic_write(path: str, payload: str | bytes):
    """The CLI's one file writer: a new temp file beside ``path``, mode 0666
    less the umask, renamed over ``path``; a failed write leaves no file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-diarkit-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload.encode() if isinstance(payload, str) else payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def extract_session_features(
    audio: audio_io.MultiStreamAudio,
    sad_segments: list[tuple[float, float]] | None,
    cfg: Config,
    net: dae.Network | None = None,
) -> tuple[FeatureMatrix, dae.Network | None]:
    """Feature stack shared by the subcommands: per-channel MFCC + CMVN,
    concatenation, then either splice + bottleneck network, or the raw
    concatenated features.

    Returns speech-only frames in oracle-SAD mode, with ``frame_index``
    naming each row's original frame, or all frames with a speech mask
    attached in no-SAD mode (from the SAD file when given, otherwise from a
    low-energy heuristic). This is the one place that drops non-speech rows.
    """
    if audio.sample_rate != cfg.sample_rate:
        raise ValueError(f"audio is at {audio.sample_rate} Hz, the config at {cfg.sample_rate} Hz")
    raw = [features.mfcc(ch, cfg) for ch in audio.channels]
    if sad_segments is not None:
        mask = features.speech_frame_mask(raw[0], sad_segments)
    else:
        if cfg.mode != "no-sad":
            raise ValueError("oracle-sad mode requires SAD segments")
        # The lowest-energy 15% of frames are non-speech, with the first
        # cepstral coefficient, averaged over channels, as the frame energy.
        c0 = np.mean([f.data[:, 0] for f in raw], axis=0)
        mask = c0 > np.quantile(c0, 0.15)
    combined = features.concat_streams([features.cmvn(f, mask) for f in raw])
    del raw

    # Oracle SAD keeps the speech rows only, each named by its frame; only
    # the kept rows are spliced, and mfcc91 splices no context.
    rows = None if cfg.mode == "no-sad" else np.flatnonzero(mask)
    context = 0 if cfg.feature_kind == "mfcc91" else features.SPLICE_FRAMES
    staged = FeatureMatrix(
        features.splice(combined, context, rows), speech_mask=mask if rows is None else None, frame_index=rows
    )
    if cfg.feature_kind == "mfcc91":
        return staged, None

    hidden_dim = combined.dim
    del combined  # all frames: training reads the staged rows only
    if net is None:
        net = dae.pretrain_stack(staged.data, hidden_dim, cfg.seed)
    elif (net.input_dim, net.bottleneck_dim) != (staged.dim, dae.BOTTLENECK_DIM):
        raise UsageError(
            f"stored network maps {net.input_dim} -> {net.bottleneck_dim} dims; "
            f"this session needs {staged.dim} -> {dae.BOTTLENECK_DIM}"
        )
    return dae.bottleneck(net, staged), net


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    if not os.path.exists(args.script):
        raise UsageError(f"script file not found: {args.script}")
    if args.channels < 1:
        raise UsageError(f"--channels must be >= 1, got {args.channels}")
    if not (0.0 <= args.max_delay_ms <= audio_io.MAX_DELAY_MS):  # also false for NaN
        raise UsageError(f"--max-delay-ms must lie in [0, {audio_io.MAX_DELAY_MS:g}], got {args.max_delay_ms}")
    if args.rate < 1:
        raise UsageError(f"--rate must be >= 1, got {args.rate}")
    if not math.isfinite(args.snr_db):
        raise UsageError(f"--snr-db must be finite, got {args.snr_db}")
    _check_file_id(args.file_id)
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
    with open(args.script, encoding="utf-8") as fh:
        script = audio_io.SessionScript.from_json(fh.read())
    channels = args.channels
    delays = [args.max_delay_ms * c / max(1, channels - 1) for c in range(channels)]
    gains = [1.0 - 0.5 * c / max(1, channels - 1) for c in range(channels)]
    audio, reference = audio_io.synth_session(
        script, channels, delays, gains, noise_snr_db=args.snr_db, seed=args.seed, rate=args.rate
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for c, chan in enumerate(audio.channels):
        _atomic_write(os.path.join(args.out_dir, f"ch{c}.wav"), audio_io.wav_bytes(chan, audio.sample_rate))
    _atomic_write(os.path.join(args.out_dir, "ref.rttm"), rttm_format(reference, file_id=args.file_id))
    sad = "".join(f"{start:.3f} {end:.3f}\n" for start, end in audio_io.sad_from_script(script))
    _atomic_write(os.path.join(args.out_dir, "sad.txt"), sad)
    print(f"wrote {audio.channel_count} channels, ref.rttm, sad.txt to {args.out_dir}")
    return 0


def _load_inputs(args) -> tuple[Config, audio_io.MultiStreamAudio, list[tuple[float, float]] | None]:
    """Input step of ``diarize`` and ``features``: the config, the session
    audio at the configured rate, and the SAD segments if given."""
    named = [("audio", path) for path in args.audio] + [("SAD", args.sad), ("config", args.config)]
    for what, path in named:
        if path is not None and not os.path.exists(path):
            raise UsageError(f"{what} file not found: {path}")
    cfg = build_pipeline_config(args)
    if args.sad is None and cfg.mode != "no-sad":
        raise UsageError("either --sad FILE or --no-sad is required")
    audio = audio_io.load_session(args.audio, target_rate=cfg.sample_rate)
    sad_segments = audio_io.read_segments(args.sad) if args.sad else None
    return cfg, audio, sad_segments


def cmd_diarize(args) -> int:
    if args.file_id is not None:
        _check_file_id(args.file_id)
    cfg, audio, sad_segments = _load_inputs(args)
    net = None
    if args.dae_model and os.path.exists(args.dae_model):
        net = dae.load_network(args.dae_model)
    feats, net = extract_session_features(audio, sad_segments, cfg, net=net)
    if args.dae_model and net is not None and not os.path.exists(args.dae_model):
        _atomic_write(args.dae_model, dae.network_bytes(net))

    hyp, meta = diarize(feats, cfg)
    file_id = args.file_id or re.sub(r"\s+", "_", os.path.splitext(os.path.basename(args.out))[0])
    _atomic_write(args.out, rttm_format(hyp, file_id=file_id))
    _atomic_write(os.path.splitext(args.out)[0] + ".meta.jsonl", json.dumps(meta) + "\n")
    print(f"wrote {args.out} ({len(hyp.speakers)} speakers, stop: {meta['stop_reason']})")
    return 0


def cmd_score(args) -> int:
    for path in (args.ref, args.hyp):
        if not os.path.exists(path):
            raise UsageError(f"file not found: {path}")
    if not (0.0 <= args.collar < math.inf):  # also false for NaN
        raise UsageError(f"--collar must be a finite value >= 0, got {args.collar}")
    ref = rttm_read(args.ref)
    hyp = rttm_read(args.hyp)
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
    if not args.segment_len >= dominance.MIN_SEGMENT_LEN_SEC:  # also true for NaN
        raise UsageError(f"--segment-len must be at least {dominance.MIN_SEGMENT_LEN_SEC:g} s, got {args.segment_len}")
    f_lo, f_hi = wpe.BAND_HZ
    if args.rate < 2 * f_hi:
        raise UsageError(f"--rate must be >= {2 * f_hi:g} to hold the {f_lo:g}-{f_hi:g} Hz band, got {args.rate}")
    hyp = rttm_read(args.hyp)
    audio = audio_io.load_session([args.audio], target_rate=args.rate)
    energies = wpe.segment_energy(audio.channels[0], hyp.segments, audio.sample_rate)
    report = dominance.dominance_report(
        hyp, energies, segment_len_sec=args.segment_len, session_duration_sec=audio.duration_sec
    )
    _atomic_write(args.out, report.to_csv())
    print(f"wrote {args.out} ({report.n_segments} windows x {len(report.speakers)} speakers)")
    return 0


def cmd_features(args) -> int:
    cfg, audio, sad_segments = _load_inputs(args)
    feats, _ = extract_session_features(audio, sad_segments, cfg)
    _atomic_write(args.out, features.feature_bytes(feats))
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
    p.add_argument("--rate", type=int, default=Config.sample_rate)
    p.add_argument("--file-id", default="session")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    # The input flags ``diarize`` and ``features`` share.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("audio", nargs="+", help="one mono WAV per channel (or one multi-channel WAV)")
    inputs.add_argument("--sad", default=None, help="speech activity segments file")
    inputs.add_argument(
        "--no-sad", dest="mode", action="store_const", const="no-sad", help="model non-speech as an extra state"
    )
    inputs.add_argument("--config", default=None, help="key=value config file")
    inputs.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("diarize", parents=[inputs], help="run the full diarization pipeline")
    p.add_argument("--speakers", dest="n_speakers", type=int, help="number of speakers (side information)")
    p.add_argument("--min-dur", dest="min_duration_sec", type=float, help="minimum turn duration in seconds")
    p.add_argument("--initial-states", type=int)
    p.add_argument("--features", dest="feature_kind", choices=["bnf", "mfcc91"])
    p.add_argument("--dae-model", default=None, help="reuse (or store) a trained network here")
    p.add_argument("--file-id", default=None)
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
    p.add_argument("--segment-len", type=float, default=dominance.DEFAULT_SEGMENT_LEN_SEC)
    p.add_argument("--rate", type=int, default=Config.sample_rate)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("features", parents=[inputs], help="dump staged features as flat binary")
    p.add_argument("--stage", dest="feature_kind", choices=["bnf", "mfcc91"])
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
