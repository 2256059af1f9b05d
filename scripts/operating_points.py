#!/usr/bin/env python3
"""Sweep the main operating points on one synthetic session and print a DER
table: SAD mode and feature kind (bottleneck vs concatenated MFCC), each at
two minimum turn durations, with each row's final speaker-state count and
stop reason."""

import argparse
import dataclasses
import os
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diarkit import audio_io, cli, scoring
from diarkit.config import Config
from diarkit.diarizer import COMPONENTS_PER_SEGMENT, diarize


def session(duration):
    """Criterion 1's session, ``duration`` seconds long: (audio, reference,
    oracle SAD segments). The acceptance and feature tests build it here."""
    script = audio_io.demo_script(4, duration, seed=21, turn_range=(2.0, 6.0), gap_range=(0.3, 0.8))
    delays = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.5]
    gains = [1.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5]
    audio, reference = audio_io.synth_session(
        script, 7, delays, gains, noise_snr_db=15.0, seed=7, rate=Config.sample_rate
    )
    return audio, reference, audio_io.sad_from_script(script)


def cell(audio, reference, sad, cfg, min_durs):
    """One operating point: the session's features computed once under
    ``cfg`` (the SAD segments are read in oracle-SAD mode only), then
    diarized and scored at each minimum turn duration in ``min_durs``.
    Returns ``(min_dur, DerBreakdown, meta)`` per duration."""
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        feats, _ = cli.extract_session_features(audio, sad if cfg.mode == "oracle-sad" else None, cfg)
        for min_dur in min_durs:
            hyp, meta = diarize(feats, dataclasses.replace(cfg, min_duration_sec=min_dur))
            rows.append((min_dur, scoring.score_der(reference, hyp), meta))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seed", type=int, nargs="?", default=3, help="pipeline seed (default 3)")
    parser.add_argument("duration", type=float, nargs="?", default=300.0, help="session seconds (default 300)")
    args = parser.parse_args()

    audio, reference, sad = session(args.duration)
    t0 = time.time()
    print(f"{'SAD':8s} {'features':8s} {'t_min':>5s} {'K0':>3s} {'M_s':>3s} {'DER':>8s} {'K':>3s} stop")
    for mode in ("oracle-sad", "no-sad"):
        for feature_kind in ("bnf", "mfcc91"):
            cfg = Config(n_speakers=len(reference.speakers), feature_kind=feature_kind, mode=mode, seed=args.seed)
            label = "Oracle" if mode == "oracle-sad" else "NO-SAD"
            for min_dur, breakdown, meta in cell(audio, reference, sad, cfg, [1.0, 0.5]):
                print(
                    f"{label:8s} {feature_kind:8s} {min_dur:5.1f} {cfg.initial_states:3d} "
                    f"{COMPONENTS_PER_SEGMENT:3d} {breakdown.der:8.4f} "
                    f"{meta['final_speaker_states']:3d} {meta['stop_reason']}"
                )
    print(f"4 cells in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
