"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria run the real pipeline on synthetic multi-stream
sessions; the numerical criteria check each algorithm against an
independent oracle (exhaustive enumeration, finite differences, analytic
identities, or seeded repetition experiments).
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from diarkit import audio_io, dae, dominance, gmm, scoring, wpe
from diarkit.config import Config
from diarkit.diarizer import COMPONENTS_PER_SEGMENT, HmmModel, diarize, segmental_em, viterbi_path
from diarkit.features import FeatureMatrix
from diarkit.segments import DiarizationHypothesis
from operating_points import cell, session
from test_dae import random_network
from test_diarizer import enumerate_best_path, gain_on_own_frames
from test_wpe import inverse_wpt, total_energy


def _report(criterion, ok, detail):
    print(f"\n[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ------------------------------------------------------- criterion 1 fixture

PIPELINE_SEED = 3


@pytest.fixture(scope="module")
def end_to_end():
    """Fixed 4-speaker 300 s session, scored in oracle-SAD and NO-SAD mode."""
    t0 = time.time()
    audio, reference, sad = session(300.0)
    cfg = Config(n_speakers=4, seed=PIPELINE_SEED)
    [(_, oracle, _)] = cell(audio, reference, sad, cfg, [0.5])
    oracle_seconds = time.time() - t0
    [(_, no_sad, _)] = cell(audio, reference, sad, dataclasses.replace(cfg, mode="no-sad"), [0.5])
    return {"oracle": oracle, "oracle_seconds": oracle_seconds, "no_sad": no_sad}


def test_criterion_1_end_to_end_der(end_to_end):
    der = end_to_end["oracle"].der
    seconds = end_to_end["oracle_seconds"]
    ns_der = end_to_end["no_sad"].der
    cfg = Config(n_speakers=4)
    defaults_ok = cfg.initial_states == 12 and COMPONENTS_PER_SEGMENT == 2
    ok = der <= 0.15 and seconds <= 300.0 and ns_der >= der - 0.01 and defaults_ok
    _report(
        1,
        ok,
        f"oracle DER {der:.4f} <= 0.15 in {seconds:.0f}s; NO-SAD DER {ns_der:.4f} >= oracle - 1%",
    )


def test_criterion_2_viterbi_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(100):
        K = int(rng.integers(1, 5))
        T = int(rng.integers(1, 4))
        F = int(rng.integers(max(T, 2), 11))
        logb = rng.normal(size=(F, K)) * 2.0
        labels, score = viterbi_path(logb, T, 0.9)
        ref_labels, ref_score = enumerate_best_path(logb, T, 0.9)
        worst = max(worst, abs(score - ref_score))
        if worst > 1e-9 or not np.array_equal(labels, ref_labels):
            _report(2, False, f"trial {trial}: score gap {abs(score - ref_score):.2e} or path mismatch")
    _report(2, True, f"100 instances, max |log-prob gap| {worst:.2e} <= 1e-9, paths identical")


def test_criterion_3_em_monotonicity():
    rng = np.random.default_rng(99)
    worst_gmm = 0.0
    for trial in range(50):
        dim = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(max(40, 2 * m), 250))
        X = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0) + rng.normal(size=dim)
        fit = gmm.em_fit(X, m, seed=trial)
        worst_gmm = min(worst_gmm, float(np.diff(fit.fit_history).min()))
    worst_path = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(20):
            dim = int(rng.integers(2, 5))
            K = int(rng.integers(2, 4))
            X = rng.normal(size=(int(rng.integers(120, 220)), dim))
            states = [
                gmm.em_fit(X[rng.choice(len(X), 50, replace=False)], 1, seed=trial * 7 + k) for k in range(K)
            ]
            model = HmmModel(states=states, min_dur_frames=int(rng.integers(1, 6)))
            _, _, history, _ = segmental_em(model, X, max_iters=8)
            if len(history) > 1:
                worst_path = min(worst_path, float(np.diff(history).min()))
    ok = worst_gmm >= -1e-8 and worst_path >= -1e-6
    _report(3, ok, f"min GMM LL step {worst_gmm:.2e} >= -1e-8; min path step {worst_path:.2e} >= -1e-6")


def test_criterion_4_dae_gradients_and_compression(monkeypatch):
    net = random_network(7, 4, 2, seed=42)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 7))
    _, gw, gb = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
    h = 1e-5
    worst = 0.0
    n_checked = 0
    for li in range(4):
        for arr, grads in ((net.weights[li], gw[li]), (net.biases[li], gb[li])):
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _, _ = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
                flat[idx] = orig - h
                dn, _, _ = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
                flat[idx] = orig
                numeric = (up - dn) / (2 * h)
                analytic = grads.reshape(-1)[idx]
                worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8))
                n_checked += 1

    rng2 = np.random.default_rng(0)
    direction = rng2.normal(size=24)
    X1 = rng2.normal(size=(600, 1)) * direction
    recipe = {"CORRUPTION_LEVEL": 0.0, "EPOCHS": 5, "BATCH_SIZE": 64, "LEARNING_RATE": 0.02, "BOTTLENECK_DIM": 3}
    for name, value in recipe.items():
        monkeypatch.setattr(dae, name, value)
    trained = dae.pretrain_stack(X1, hidden_dim=8, seed=0)
    losses = trained.train_losses[0]
    ratio = losses[-1] / losses[0]
    ok = worst < 1e-4 and n_checked >= 20 and ratio < 0.25
    _report(4, ok, f"{n_checked} params, max grad rel err {worst:.2e} < 1e-4; rank-1 MSE ratio {ratio:.3f} < 0.25")


def test_criterion_5_wavelet_correctness():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4096)
    tree = wpe.wpt(x, 8000)
    parseval = abs(total_energy(tree) - np.dot(x, x)) / np.dot(x, x)
    roundtrip = float(np.abs(inverse_wpt(tree)[: len(x)] - x).max())
    t = np.arange(4096) / 8000.0
    in_tree = wpe.wpt(np.sin(2 * np.pi * 1000 * t), 8000)
    in_frac = wpe.band_energy(in_tree, 50, 2000) / total_energy(in_tree)
    out_tree = wpe.wpt(np.sin(2 * np.pi * 3000 * t), 8000)
    out_frac = wpe.band_energy(out_tree, 50, 2000) / total_energy(out_tree)
    ok = roundtrip < 1e-8 and parseval < 1e-6 and in_frac >= 0.90 and out_frac <= 0.10
    _report(
        5,
        ok,
        f"round-trip {roundtrip:.2e} < 1e-8; Parseval {parseval:.2e} < 1e-6; "
        f"1 kHz in-band {in_frac:.3f} >= 0.90; 3 kHz in-band {out_frac:.3f} <= 0.10",
    )


def test_criterion_6_merge_gain_soundness():
    rng = np.random.default_rng(66)
    same_pos = 0
    for trial in range(100):
        mean = rng.normal(size=4)
        X1 = rng.normal(mean, 1.0, size=(500, 4))
        X2 = rng.normal(mean, 1.0, size=(500, 4))
        g1 = gmm.kmeans_init(X1, 2, seed=trial)
        g2 = gmm.kmeans_init(X2, 2, seed=trial + 5000)
        same_pos += gain_on_own_frames(g1, X1, g2, X2) > 0
    distinct_neg = 0
    for trial in range(100):
        X1 = rng.normal(0.0, 1.0, size=(500, 4))
        X2 = rng.normal(10.0, 1.0, size=(500, 4))
        g1 = gmm.kmeans_init(X1, 2, seed=trial)
        g2 = gmm.kmeans_init(X2, 2, seed=trial + 5000)
        distinct_neg += gain_on_own_frames(g1, X1, g2, X2) < 0
    ok = same_pos >= 95 and distinct_neg >= 95
    _report(6, ok, f"same-source positive {same_pos}/100 >= 95; distinct-source negative {distinct_neg}/100 >= 95")


def test_criterion_7_der_scorer():
    ref = DiarizationHypothesis([(0.0, 10.0, "A"), (10.0, 20.0, "B")])
    hyp = DiarizationHypothesis([(0.0, 12.0, "spk1"), (12.0, 20.0, "spk2")])
    hand = scoring.score_der(ref, hyp)
    exact = abs(hand.der - 0.1000) < 1e-12 and hand.mapping == {"spk1": "A", "spk2": "B"}
    renamed = DiarizationHypothesis([(s, e, {"spk1": "zz", "spk2": "aa"}[lab]) for s, e, lab in hyp.segments])
    permuted = abs(scoring.score_der(ref, renamed).der - hand.der) < 1e-12
    identity = scoring.score_der(ref, ref).der == 0.0
    ok = exact and permuted and identity
    _report(7, ok, f"hand-worked DER {hand.der:.4f} == 0.1000; label-permutation invariant; identity DER 0")


def test_criterion_8_dominance_scores():
    # session-level speaking shares 0.4/0.3/0.2/0.1; who leads varies from
    # window to window, as it would in a real group discussion
    block_shares = [
        [0.62, 0.22, 0.10, 0.06],
        [0.42, 0.38, 0.12, 0.08],
        [0.30, 0.30, 0.28, 0.12],
        [0.26, 0.30, 0.30, 0.14],
    ]
    events = []
    speakers = None
    for b, shares in enumerate(block_shares):
        block = audio_io.demo_script(4, 300.0, seed=31 + b, shares=shares, turn_range=(2.5, 5.0), gap_range=(0.3, 0.6))
        speakers = block.speakers
        events.extend((spk, start + 300.0 * b, dur) for spk, start, dur in block.events)
    script = audio_io.SessionScript(speakers=speakers, events=events, total_duration_sec=1200.0)
    session_share = np.zeros(4)
    for spk, _, dur in script.events:
        session_share[spk] += dur
    session_share /= session_share.sum()
    np.testing.assert_allclose(session_share, [0.4, 0.3, 0.2, 0.1], atol=0.02)
    audio, reference = audio_io.synth_session(script, 1, [0.0], [1.0], noise_snr_db=20.0, seed=8, rate=8000)
    energies = wpe.segment_energy(audio.channels[0], reference.segments, audio.sample_rate)
    report = dominance.dominance_report(
        reference, energies, segment_len_sec=300.0, session_duration_sec=script.total_duration_sec
    )
    assert report.n_segments == 4
    sums_ok = np.abs(report.ds.sum(axis=1) - 1.0).max() < 1e-12

    probe = np.array([0.3, -1.2, 2.0, 0.0])
    shift_gap = np.abs(dominance.dominance_scores(probe + 123.4) - dominance.dominance_scores(probe)).max()

    window_totals = report.spts.sum(axis=1, keepdims=True)
    observed_share = report.spts / np.maximum(window_totals, 1e-12)
    corr = np.corrcoef(report.ds.ravel(), observed_share.ravel())[0, 1]
    ok = sums_ok and shift_gap < 1e-12 and corr >= 0.9
    _report(
        8,
        ok,
        f"DS rows sum to 1 (err {np.abs(report.ds.sum(axis=1) - 1).max():.1e}); "
        f"shift invariance {shift_gap:.1e} < 1e-12; DS vs speaking-share Pearson {corr:.4f} >= 0.9",
    )


def test_criterion_9_min_duration_invariant():
    rng = np.random.default_rng(900)
    violations = 0
    runs = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(20):
            n_spk = int(rng.integers(2, 4))
            dim = int(rng.integers(4, 8))
            means = [rng.normal(scale=4.0, size=dim) for _ in range(n_spk)]
            offsets = [rng.normal(scale=1.2, size=dim) for _ in range(n_spk)]
            X, prev = [], -1
            for _ in range(int(rng.integers(10, 16))):
                k = int(rng.integers(n_spk))
                while k == prev:
                    k = int(rng.integers(n_spk))
                n = int(rng.integers(50, 110))
                modes = np.where(rng.random((n, 1)) < 0.5, 1.0, -1.0)
                X.append(rng.normal(means[k] + modes * offsets[k], 1.0, size=(n, dim)))
                prev = k
            X = np.vstack(X)
            t_min = float(rng.choice([0.2, 0.3, 0.5]))
            cfg = Config(
                n_speakers=n_spk,
                initial_states=3 * n_spk,
                min_duration_sec=t_min,
                seed=trial,
            )
            f = FeatureMatrix(X)
            hyp, meta = diarize(f, cfg)
            T = meta["min_dur_frames"]
            runs += 1
            durations = [end - start for start, end, _ in hyp.segments]
            for d in durations[:-1]:
                if d < T * 0.010 - 0.010 - 1e-9:
                    violations += 1
    _report(9, violations == 0, f"{runs} runs, {violations} runs shorter than T frames (final run exempt)")
