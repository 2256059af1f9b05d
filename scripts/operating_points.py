#!/usr/bin/env python3
"""Sweep the main operating points on one synthetic session and print a DER
table: feature kind (bottleneck vs concatenated MFCC), SAD mode, and the
minimum turn duration.

With --sweep, print instead the oracle-SAD bottleneck DER of the same
session for pipeline seeds 0-3 at OPENBLAS_NUM_THREADS 1 and 2. Each cell
runs in its own child process, because OpenBLAS reads its thread count
when numpy is first imported.

Usage: python scripts/operating_points.py [--quick] [--sweep]
"""

import os
import subprocess
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diarkit import audio_io, cli, scoring
from diarkit.diarizer import DiarizerConfig, diarize

SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_THREADS = ("1", "2")


def session(duration):
    script = audio_io.demo_script(4, duration, seed=21, turn_range=(2.0, 6.0), gap_range=(0.3, 0.8))
    delays = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.5]
    gains = [1.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5]
    audio, reference = audio_io.synth_session(script, 7, delays, gains, noise_snr_db=15.0, seed=7)
    return audio, reference, audio_io.sad_from_script(script)


def run_der(audio, reference, sad, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        feats, _ = cli.extract_session_features(audio, sad if cfg.mode == "oracle-sad" else None, cfg)
        hyp, _ = diarize(feats, cfg.stage(DiarizerConfig))
    return scoring.score_der(reference, hyp).der


def sweep(duration):
    print(f"{'seed':>4s} {'threads':>7s} {'DER':>8s} {'time':>6s}")
    for seed in SWEEP_SEEDS:
        for threads in SWEEP_THREADS:
            t0 = time.time()
            child = subprocess.run(
                [sys.executable, __file__, "--cell", str(seed), str(duration)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                stdout=subprocess.PIPE,
                text=True,
                check=True,
            )
            print(f"{seed:4d} {threads:>7s} {float(child.stdout):8.4f} {time.time() - t0:5.0f}s", flush=True)


def main():
    duration = 120.0 if "--quick" in sys.argv else 300.0
    if "--cell" in sys.argv:
        seed, duration = sys.argv[sys.argv.index("--cell") + 1 :][:2]
        cfg = cli.PipelineConfig(n_speakers=4, min_duration_sec=0.5, seed=int(seed))
        print(f"{run_der(*session(float(duration)), cfg):.6f}")
        return 0
    if "--sweep" in sys.argv:
        sweep(duration)
        return 0

    audio, reference, sad = session(duration)
    print(f"{'SAD':8s} {'features':8s} {'t_min':>5s} {'K0':>3s} {'M_s':>3s} {'DER':>8s} {'time':>6s}")
    for mode in ("oracle-sad", "no-sad"):
        for feature_kind in ("bnf", "mfcc91"):
            for t_min in (1.0, 0.5):
                cfg = cli.PipelineConfig(
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
