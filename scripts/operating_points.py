#!/usr/bin/env python3
"""Sweep the main operating points on one synthetic session and print a DER
table: feature kind (bottleneck vs concatenated MFCC), SAD mode, and the
minimum turn duration.

With --cell SEED DURATION, print instead one oracle-SAD bottleneck DER:
a DURATION-second session built the same way, at pipeline seed SEED.

Usage: python scripts/operating_points.py [--quick | --cell SEED DURATION]
"""

import os
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diarkit import audio_io, cli, scoring
from diarkit.config import Config
from diarkit.diarizer import diarize


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


def run_der(audio, reference, sad, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        feats, _ = cli.extract_session_features(audio, sad if cfg.mode == "oracle-sad" else None, cfg)
        hyp, _ = diarize(feats, cfg)
    return scoring.score_der(reference, hyp).der


def main():
    duration = 120.0 if "--quick" in sys.argv else 300.0
    if "--cell" in sys.argv:
        seed, duration = sys.argv[sys.argv.index("--cell") + 1 :][:2]
        cfg = Config(n_speakers=4, min_duration_sec=0.5, seed=int(seed))
        print(f"{run_der(*session(float(duration)), cfg):.6f}")
        return 0

    audio, reference, sad = session(duration)
    print(f"{'SAD':8s} {'features':8s} {'t_min':>5s} {'K0':>3s} {'M_s':>3s} {'DER':>8s} {'time':>6s}")
    for mode in ("oracle-sad", "no-sad"):
        for feature_kind in ("bnf", "mfcc91"):
            for t_min in (1.0, 0.5):
                cfg = Config(
                    n_speakers=4,
                    min_duration_sec=t_min,
                    feature_kind=feature_kind,
                    mode=mode,
                    seed=3,
                )
                t0 = time.time()
                der = run_der(audio, reference, sad, cfg)
                label = "Oracle" if mode == "oracle-sad" else "NO-SAD"
                print(
                    f"{label:8s} {feature_kind:8s} {t_min:5.1f} {cfg.initial_states:3d} "
                    f"{cfg.components_per_initial_segment:3d} {der:8.4f} {time.time() - t0:5.0f}s"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
