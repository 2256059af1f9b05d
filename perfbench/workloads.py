"""The benchmark's workloads: input synthesis, session commands, output checks.

Run as a script, this file synthesizes one workload's inputs into a
directory and prints the seconds it took, imports included; the benchmark
reports that as set-up time:

    python3 perfbench/workloads.py <workload> <seed> <out_dir>

The checks and the DER below are the benchmark's own. They read the files
the CLI wrote and share no code with diarkit's scorer or RTTM reader, so a
change to those cannot also change the judge.
"""

from __future__ import annotations

import time

# Set-up time, as the child reports it, counts from here: imports included,
# interpreter start-up left out.
START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from decimal import Decimal  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.io import wavfile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Criterion 1's acceptance session: script, synthesis and pipeline seeds,
# channel delays and gains. The diarize workloads keep these fixed whatever
# --seed says: DER swings from 0.07 to 0.41 across sessions and seeds
# (ROADMAP item 1), far wider than any bound, so a fixed session is the
# only way `der` can flag an accuracy change.
SESSION_SEED, SYNTH_SEED, PIPELINE_SEED = 21, 7, 3
DELAYS_MS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.5]
GAINS = [1.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5]
SNR_DB = 15.0

# Session lengths: both diarize sessions are the opening seconds of
# criterion 1's 300 s script, short enough that a run holds two or more
# sessions within the time budget (see README.md). The no-SAD session
# scores DER 0.16 to 0.30 at every length from 12 to 16 s and above 1.2 at
# 11 and 11.5 s; 14 s keeps 2.5 s from that cliff.
ACCEPTANCE_SEC = 30.0
NOSAD_SEC = 14.0
DOMINANCE_SEC = 1800.0
DOMINANCE_SHARES = [0.4, 0.3, 0.2, 0.1]
WINDOW_SEC = 300.0  # the CLI's default dominance window
# The scored hypothesis on dominance-30min is the reference with the last
# TRIM of every turn cut off, so its DER is TRIM up to RTTM rounding.
TRIM = 0.05

WORKLOADS = ("acceptance-8k", "nosad-mfcc91-16k", "dominance-30min")

# RTTM keeps 3 decimals of start and of duration, so a segment end can pass
# the next start (or the audio end) by up to 1.5e-3 s without any overlap.
RTTM_TOL = 2e-3


class CheckFailed(Exception):
    """An output check failed."""


# ------------------------------------------------------------- synthesis


def _write_rttm(path: Path, segments):
    with open(path, "w", encoding="utf-8") as fh:
        for start, end, label in segments:
            fh.write(f"SPEAKER session 1 {start:.3f} {end - start:.3f} <NA> <NA> {label} <NA> <NA>\n")


def _noise_turns(script, seed: int):
    """One 8 kHz channel where every turn is white noise of one fixed level
    over a background 15 dB lower. Rendering 30 min of harmonic voices with
    diarkit's synthesizer takes about as long as a whole dominance session,
    and set-up runs twice per session; the wavelet-packet work
    depends only on the turn lengths, not on what the turns sound like."""
    from diarkit import audio_io

    rate, level = 8000, 0.1
    rng = np.random.default_rng(seed)
    n = int(round(script.total_duration_sec * rate))
    samples = rng.normal(0.0, level * 10.0 ** (-SNR_DB / 20.0), n)
    for _, start, dur in script.events:
        i0, i1 = int(round(start * rate)), min(n, int(round((start + dur) * rate)))
        samples[i0:i1] += rng.normal(0.0, level, i1 - i0)
    return audio_io.MultiStreamAudio(channels=[samples], sample_rate=rate)


def dominance_script(seed: int, duration: float | None = None):
    """The turn plan of dominance-30min for ``seed``."""
    from diarkit import audio_io

    return audio_io.demo_script(4, duration or DOMINANCE_SEC, seed=seed, shares=DOMINANCE_SHARES)


def write_reference(path: Path, script):
    """The script's turns as an RTTM, labels ``spk<N>``."""
    _write_rttm(path, [(start, start + dur, f"spk{spk}") for spk, start, dur in script.events])


def synthesize(workload: str, seed: int, out: Path, duration: float | None = None):
    """Write the workload's WAVs and reference RTTM, plus the SAD file or the
    scored hypothesis. Turn plans come from diarkit's ``demo_script``; the
    diarize workloads' audio from its ``synth_session``. ``duration``
    shortens the session for the self-test."""
    from diarkit import audio_io

    out.mkdir(parents=True, exist_ok=True)
    if workload == "dominance-30min":
        script = dominance_script(seed, duration)
        audio = _noise_turns(script, seed)
    else:
        duration = duration or (ACCEPTANCE_SEC if workload == "acceptance-8k" else NOSAD_SEC)
        rate = 8000 if workload == "acceptance-8k" else 16000
        script = audio_io.demo_script(4, duration, seed=SESSION_SEED, turn_range=(2.0, 6.0), gap_range=(0.3, 0.8))
        audio, _ = audio_io.synth_session(
            script, len(DELAYS_MS), DELAYS_MS, GAINS, noise_snr_db=SNR_DB, seed=SYNTH_SEED, rate=rate
        )
    for c, channel in enumerate(audio.channels):
        wavfile.write(out / f"ch{c}.wav", audio.sample_rate, channel.astype(np.float32))
    write_reference(out / "ref.rttm", script)
    turns = [(start, start + dur, f"spk{spk}") for spk, start, dur in script.events]
    if workload == "dominance-30min":
        _write_rttm(out / "trimmed.rttm", [(s, s + (1.0 - TRIM) * (e - s), lab) for s, e, lab in turns])
    else:
        with open(out / "sad.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{s:.3f} {e:.3f}\n" for s, e, _ in turns)


# --------------------------------------------------------------- sessions


def session_commands(workload: str, inputs: Path, out: Path) -> list[list[str]]:
    """The CLI calls of one session, in order."""
    ch0 = str(inputs / "ch0.wav")
    if workload == "dominance-30min":
        ref = str(inputs / "ref.rttm")
        return [
            ["dominance", "--hyp", ref, "--audio", ch0, "--out", str(out / "dominance.csv")],
            ["score", "--ref", ref, "--hyp", str(inputs / "trimmed.rttm"), "--json", str(out / "score.json")],
        ]
    wavs = [str(inputs / f"ch{c}.wav") for c in range(len(DELAYS_MS))]
    if workload == "acceptance-8k":
        mode = ["--sad", str(inputs / "sad.txt"), "--features", "bnf"]
    else:
        mode = ["--no-sad", "--features", "mfcc91"]
    hyp = str(out / "hyp.rttm")
    return [
        ["diarize", *wavs, *mode, "--speakers", "4", "--min-dur", "0.5", "--seed", str(PIPELINE_SEED), "--out", hyp],
        ["dominance", "--hyp", hyp, "--audio", ch0, "--out", str(out / "dominance.csv")],
    ]


def session_outputs(workload: str, out: Path) -> list[Path]:
    """Files a session writes that must come out byte-identical under
    tracing."""
    if workload == "dominance-30min":
        return [out / "dominance.csv", out / "score.json"]
    return [out / "hyp.rttm", out / "dominance.csv"]


# ----------------------------------------------------------------- checks


def read_rttm(path: Path) -> list[tuple[float, float, str]]:
    """SPEAKER records in file order; anything malformed fails the check."""
    segments = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if len(fields) != 10 or fields[0] != "SPEAKER":
            raise CheckFailed(f"{path.name}:{lineno}: not an RTTM SPEAKER record: {line!r}")
        try:
            start, dur = float(fields[3]), float(fields[4])
        except ValueError as exc:
            raise CheckFailed(f"{path.name}:{lineno}: bad time fields") from exc
        segments.append((start, start + dur, fields[7]))
    return segments


def check_segments(segments, duration: float):
    """Ordered, positive-length, non-overlapping, inside [0, duration]."""
    if not segments:
        raise CheckFailed("hypothesis has no segments")
    prev_end = 0.0
    for i, (start, end, _) in enumerate(segments):
        if not (end > start >= prev_end - RTTM_TOL):
            raise CheckFailed(f"segment {i} ({start}, {end}) is empty, out of order or overlaps the previous one")
        if end > duration + RTTM_TOL:
            raise CheckFailed(f"segment {i} ends at {end} s, after the audio ({duration} s)")
        prev_end = end


def der(reference, hypothesis) -> float:
    """Diarization error rate, collar 0, optimal one-to-one speaker map."""
    from scipy.optimize import linear_sum_assignment  # the judge's import, kept out of set-up time

    ref_names = sorted({s[2] for s in reference})
    hyp_names = sorted({s[2] for s in hypothesis})
    points = np.unique([t for s in (*reference, *hypothesis) for t in s[:2]])
    mids = (points[:-1] + points[1:]) / 2.0
    durs = np.diff(points)

    def label_index(segments, names):
        starts = np.array([s[0] for s in segments])
        ends = np.array([s[1] for s in segments])
        codes = np.array([names.index(s[2]) for s in segments])
        at = np.searchsorted(starts, mids, side="right") - 1
        inside = (at >= 0) & (mids < ends[np.maximum(at, 0)])
        return np.where(inside, codes[np.maximum(at, 0)], -1)

    ref_at, hyp_at = label_index(reference, ref_names), label_index(hypothesis, hyp_names)
    total = durs[ref_at >= 0].sum()
    both = (ref_at >= 0) & (hyp_at >= 0)
    errors = durs[(ref_at < 0) & (hyp_at >= 0)].sum() + durs[(ref_at >= 0) & (hyp_at < 0)].sum()
    overlap = np.zeros((len(ref_names), max(1, len(hyp_names))))
    np.add.at(overlap, (ref_at[both], hyp_at[both]), durs[both])
    rows, cols = linear_sum_assignment(-overlap)
    errors += durs[both].sum() - overlap[rows, cols].sum()
    return float(errors / total)


def _printed_error(text: str) -> float:
    """Largest rounding error of a value printed with 6 significant digits."""
    value = abs(float(Decimal(text)))
    return 0.0 if value == 0 else 0.5 * 10.0 ** (math.floor(math.log10(value)) - 5)


def check_dominance_csv(path: Path, speakers: list[str], n_windows: int) -> np.ndarray:
    """One row per (window, speaker) in order; each window's dominance
    probabilities sum to 1. The CSV prints 6 significant digits, so the sum
    may miss 1 by the printing error of its terms plus 1e-9. Returns the
    (windows, speakers) probabilities."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if not lines or lines[0] != "segment,speaker,turns,spts,spens,comb,ds":
        raise CheckFailed(f"{path.name}: missing or wrong header")
    rows = [line.split(",") for line in lines[1:]]
    expected = [(str(w), spk) for w in range(n_windows) for spk in speakers]
    if [(r[0], r[1]) for r in rows] != expected or any(len(r) != 7 for r in rows):
        raise CheckFailed(f"{path.name}: expected one row per (window, speaker) for {n_windows} x {speakers}")
    try:
        ds = np.array([float(r[6]) for r in rows]).reshape(n_windows, len(speakers))
        slack = np.array([_printed_error(r[6]) for r in rows]).reshape(n_windows, len(speakers)).sum(axis=1)
    except (ValueError, ArithmeticError) as exc:
        raise CheckFailed(f"{path.name}: unparsable probability: {exc}") from exc
    gap = np.abs(ds.sum(axis=1) - 1.0)
    if not (ds >= 0).all() or not (gap <= slack + 1e-9).all():
        raise CheckFailed(f"{path.name}: window probabilities do not sum to 1 (gaps {gap.tolist()})")
    return ds


def _score_json_der(path: Path) -> float:
    try:
        return float(json.loads(path.read_text(encoding="utf-8"))["der"])
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{path.name}: unreadable score: {exc}") from exc


def check_session(workload: str, inputs: Path, out: Path) -> float:
    """Check one session's outputs; return the DER the workload reports."""
    reference = read_rttm(inputs / "ref.rttm")
    rate, samples = wavfile.read(inputs / "ch0.wav", mmap=True)
    duration = len(samples) / rate
    n_windows = math.ceil(duration / WINDOW_SEC)
    if workload == "dominance-30min":
        speakers = sorted({s[2] for s in reference})
        ds = check_dominance_csv(out / "dominance.csv", speakers, n_windows)
        if int(np.argmax(ds.mean(axis=0))) != 0:
            raise CheckFailed(f"speaker with share {DOMINANCE_SHARES[0]} is not the most dominant: {ds.mean(axis=0)}")
        expected = der(reference, read_rttm(inputs / "trimmed.rttm"))
        scored = _score_json_der(out / "score.json")
        if abs(scored - expected) > 1e-9:
            raise CheckFailed(f"score reports DER {scored}, the benchmark computes {expected}")
        return scored

    hypothesis = read_rttm(out / "hyp.rttm")
    check_segments(hypothesis, duration)
    check_dominance_csv(out / "dominance.csv", sorted({s[2] for s in hypothesis}), n_windows)
    return der(reference, hypothesis)


if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(SRC))
    synthesize(name, seed, out_dir)
    print(time.perf_counter() - START)
