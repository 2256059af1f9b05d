import math
import warnings

import numpy as np
import pytest

from diarkit import cli, config, diarizer, gmm
from diarkit.audio_io import MultiStreamAudio
from diarkit.config import Config
from diarkit.diarizer import (
    SELF_LOOP_PROB,
    HmmModel,
    diarize,
    init_segmentation,
    merge_gain,
    segmental_em,
    viterbi_path,
)
from diarkit.features import FeatureMatrix
from diarkit.gmm import Gmm
from operating_points import cell, session


def enumerate_best_path(logb, min_dur, self_loop):
    """Brute-force oracle: walk every legal run-length decomposition.

    Runs must span at least ``min_dur`` frames except the final one, which
    the end of data may truncate. Scores: uniform entry, certain in-run
    advances, self-loops after the minimum, equal-split exits.
    """
    F, K = logb.shape
    if K == 1:
        return np.zeros(F, dtype=np.int64), float(logb[:, 0].sum())
    log_stay = math.log(self_loop)
    log_exit = math.log((1 - self_loop) / (K - 1))
    best_score = -math.inf
    best_path = None
    stack = [(0, -1, -math.log(K), [])]
    while stack:
        t, prev, score, path = stack.pop()
        for lab in range(K - 1, -1, -1):
            if lab == prev:
                continue
            emis = 0.0
            for run_len in range(1, F - t + 1):
                emis += logb[t + run_len - 1, lab]
                end = t + run_len
                if end == F:
                    total = score + emis + max(run_len - min_dur, 0) * log_stay
                    if total > best_score:
                        best_score = total
                        best_path = path + [lab] * run_len
                elif run_len >= min_dur:
                    extra = (run_len - min_dur) * log_stay + log_exit
                    stack.append((end, lab, score + emis + extra, path + [lab] * run_len))
    return np.array(best_path, dtype=np.int64), best_score


def random_model(rng, n_states, dim, min_dur):
    states = [
        Gmm(weights=[1.0], means=[rng.normal(size=dim) * 3], variances=[rng.uniform(0.5, 2.0, size=dim)])
        for _ in range(n_states)
    ]
    return HmmModel(states=states, min_dur_frames=min_dur)


def test_init_segmentation_even_split():
    ranges = init_segmentation(1200, 12)
    assert len(ranges) == 12
    assert all(hi - lo == 100 for lo, hi in ranges)


def test_init_segmentation_remainder():
    ranges = init_segmentation(1201, 12)
    sizes = sorted(hi - lo for lo, hi in ranges)
    assert sizes.count(100) == 11 and sizes.count(101) == 1
    assert ranges[0][0] == 0 and ranges[-1][1] == 1201


def test_init_segmentation_too_few_frames():
    with pytest.raises(ValueError, match="too few"):
        init_segmentation(10, 12)


def test_viterbi_single_state_labels_everything():
    rng = np.random.default_rng(0)
    logb = rng.normal(size=(20, 1))
    labels, score = viterbi_path(logb, 3, 0.9)
    assert (labels == 0).all()
    assert abs(score - logb[:, 0].sum()) < 1e-12


def test_viterbi_matches_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(100):
        K = int(rng.integers(1, 5))
        T = int(rng.integers(1, 4))
        F = int(rng.integers(max(T, 2), 11))
        logb = rng.normal(size=(F, K)) * 2.0
        labels, score = viterbi_path(logb, T, 0.9)
        ref_labels, ref_score = enumerate_best_path(logb, T, 0.9)
        assert abs(score - ref_score) < 1e-9, f"trial {trial}"
        np.testing.assert_array_equal(labels, ref_labels, err_msg=f"trial {trial}")


def test_viterbi_model_decode_matches_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        model = random_model(rng, int(rng.integers(2, 4)), 2, int(rng.integers(1, 4)))
        X = rng.normal(size=(8, 2))
        labels, score = model.decode(X)
        ref_labels, ref_score = enumerate_best_path(model.log_emissions(X), model.min_dur_frames, SELF_LOOP_PROB)
        assert abs(score - ref_score) < 1e-9
        np.testing.assert_array_equal(labels, ref_labels)


def test_viterbi_tie_keeps_current_state_at_unit_duration():
    # with equal emissions and p(stay) == p(exit), every path scores the same
    labels, score = viterbi_path(np.zeros((9, 2)), 1, 0.5)
    assert (labels == 0).all()
    assert score == pytest.approx(9 * math.log(0.5))


def test_log_emissions_match_direct_formula():
    rng = np.random.default_rng(16)
    dim = 5
    states = [gmm.em_fit(rng.normal(loc=3.0 * m, size=(60, dim)), m, seed=m) for m in (1, 2, 3, 4, 12)]
    # a non-speech state refit on digital silence: its first dimension is
    # the log floor on every frame, so EM floors that variance at
    # ABS_VAR_FLOOR, and its mean sits far from the speech states' means
    silence = rng.normal(size=(60, dim))
    silence[:, 0] = math.log(1e-10)
    states.append(gmm.em_fit(silence, 2, seed=5))
    assert (states[-1].variances[:, 0] == gmm.ABS_VAR_FLOOR).all()
    model = HmmModel(states=states, min_dur_frames=3)
    X = rng.normal(scale=4.0, size=(200, dim))
    X[::2, 0] = math.log(1e-10)
    expected = np.empty((len(X), len(states)))
    for k, g in enumerate(states):
        quad = ((X[:, None, :] - g.means[None]) ** 2 / g.variances[None]).sum(axis=2)
        lp = np.log(g.weights) - 0.5 * (dim * math.log(2 * math.pi) + np.log(g.variances).sum(axis=1) + quad)
        m = lp.max(axis=1)
        expected[:, k] = m + np.log(np.exp(lp - m[:, None]).sum(axis=1))
    np.testing.assert_allclose(model.log_emissions(X), expected, rtol=1e-12, atol=1e-9)


def test_viterbi_min_duration_forces_single_switch():
    T = 4
    strong, weak = 0.0, -50.0
    logb = np.full((2 * T, 2), weak)
    logb[:T, 0] = strong
    logb[T:, 1] = strong
    labels, _ = viterbi_path(logb, T, 0.9)
    assert (labels[:T] == 0).all() and (labels[T:] == 1).all()
    switches = (np.diff(labels) != 0).sum()
    assert switches == 1


def sub_state_transitions(n_states, min_dur, self_loop):
    """Dense (K*T, K*T) transition matrix of the minimum-duration topology.

    Sub-state i advances to i+1 with probability 1; the last sub-state
    self-loops with ``self_loop`` and exits to every other state's first
    sub-state with equal probability.
    """
    K, T = n_states, min_dur
    trans = np.zeros((K * T, K * T))
    for k in range(K):
        base = k * T
        for j in range(T - 1):
            trans[base + j, base + j + 1] = 1.0
        last = base + T - 1
        if K == 1:
            trans[last, last] = 1.0
        else:
            trans[last, last] = self_loop
            for k2 in range(K):
                if k2 != k:
                    trans[last, k2 * T] = (1.0 - self_loop) / (K - 1)
    return trans


def dense_viterbi(logb, min_dur, self_loop):
    """Oracle for long sequences: textbook Viterbi over all K*T sub-states
    of the dense transition matrix, entering any state's first sub-state
    with equal probability."""
    F, K = logb.shape
    T = min_dur
    with np.errstate(divide="ignore"):
        log_trans = np.log(sub_state_transitions(K, T, self_loop))
    emis = np.repeat(logb, T, axis=1)  # sub-state i belongs to state i // T
    delta = np.full(K * T, -np.inf)
    delta[::T] = -math.log(K)
    delta += emis[0]
    back = np.zeros((F, K * T), dtype=np.int64)
    for t in range(1, F):
        cand = delta[:, None] + log_trans
        back[t] = cand.argmax(axis=0)
        delta = cand.max(axis=0) + emis[t]
    i = int(delta.argmax())
    score = float(delta[i])
    path = [i]
    for t in range(F - 1, 0, -1):
        i = int(back[t, i])
        path.append(i)
    return np.array(path[::-1], dtype=np.int64) // T, score


def test_transition_rows_sum_to_one():
    for K, T in [(1, 1), (1, 4), (3, 1), (4, 5)]:
        trans = sub_state_transitions(K, T, 0.9)
        np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)


def test_viterbi_matches_dense_viterbi_on_long_sequences():
    # (K, T, frames): shorter than T, not a multiple of T, T = 1, K = 2
    cases = [(2, 12, 7), (3, 5, 123), (2, 1, 400), (6, 1, 57), (6, 12, 400), (2, 7, 7), (4, 3, 1)]
    rng = np.random.default_rng(15)
    for _ in range(50):
        cases.append((int(rng.integers(1, 7)), int(rng.integers(1, 13)), int(rng.integers(1, 401))))
    for K, T, F in cases:
        logb = rng.normal(size=(F, K)) * 2.0
        self_loop = float(rng.choice([0.5, 0.9, 0.99]))
        labels, score = viterbi_path(logb, T, self_loop)
        ref_labels, ref_score = dense_viterbi(logb, T, self_loop)
        assert abs(score - ref_score) < 1e-9, (K, T, F)
        np.testing.assert_array_equal(labels, ref_labels, err_msg=f"K={K} T={T} F={F}")


def block_data(rng, means, block_len, n_blocks, dim, noise=1.0):
    X, labels = [], []
    for b in range(n_blocks):
        k = b % len(means)
        X.append(rng.normal(means[k], noise, size=(block_len, dim)))
        labels.extend([k] * block_len)
    return np.vstack(X), np.array(labels)


def test_segmental_em_fixed_point_short_circuit():
    rng = np.random.default_rng(2)
    means = [np.full(3, -4.0), np.full(3, 4.0)]
    X, _ = block_data(rng, means, 40, 4, 3)
    states = [gmm.em_fit(X[:80][::2], 1, seed=0), gmm.em_fit(X[80:][::2], 1, seed=1)]
    model = HmmModel(states=states, min_dur_frames=5)
    model2, labels, history, kept = segmental_em(model, X, max_iters=10)
    assert kept == [0, 1]
    assert len(history) <= 4  # converges almost immediately on easy data


def test_segmental_em_recovers_distinct_means():
    rng = np.random.default_rng(3)
    means = [np.full(4, -3.0), np.full(4, 3.0)]
    X, truth = block_data(rng, means, 50, 6, 4)
    # deliberately poor starting models: fit on interleaved halves
    states = [gmm.em_fit(X[::2], 2, seed=0), gmm.em_fit(X[1::2], 2, seed=1)]
    model = HmmModel(states=states, min_dur_frames=10)
    _, labels, history, _ = segmental_em(model, X, max_iters=10)
    acc = max((labels == truth).mean(), (labels == 1 - truth).mean())
    assert acc >= 0.95
    diffs = np.diff(history)
    assert (diffs >= -1e-6).all()


def test_segmental_em_path_log_prob_monotone_random_trials():
    rng = np.random.default_rng(4)
    for trial in range(20):
        dim = int(rng.integers(2, 5))
        K = int(rng.integers(2, 4))
        X = rng.normal(size=(int(rng.integers(100, 200)), dim))
        states = [gmm.em_fit(X[rng.choice(len(X), 40, replace=False)], 1, seed=trial * 10 + k) for k in range(K)]
        model = HmmModel(states=states, min_dur_frames=int(rng.integers(1, 6)))
        _, _, history, _ = segmental_em(model, X, max_iters=8)
        assert (np.diff(history) >= -1e-6).all(), f"trial {trial}: {history}"


def gain_on_own_frames(g1, X1, g2, X2):
    """The merge test's gain, with each child scored on its own frames."""
    return merge_gain(g1, X1, g1.log_likelihood(X1), g2, X2, g2.log_likelihood(X2))[0]


def test_merge_gain_same_source_positive():
    # segment models carry cluster statistics; the pooled model alone gets
    # the EM refinement, as in the merge test proper
    rng = np.random.default_rng(5)
    wins = 0
    for trial in range(20):
        mean = rng.normal(size=4)
        X1 = rng.normal(mean, 1.0, size=(500, 4))
        X2 = rng.normal(mean, 1.0, size=(500, 4))
        g1 = gmm.kmeans_init(X1, 2, seed=trial)
        g2 = gmm.kmeans_init(X2, 2, seed=trial + 1000)
        if gain_on_own_frames(g1, X1, g2, X2) > 0:
            wins += 1
    assert wins >= 19


def test_merge_gain_distinct_sources_negative():
    rng = np.random.default_rng(6)
    wins = 0
    for trial in range(20):
        X1 = rng.normal(0.0, 1.0, size=(500, 4))
        X2 = rng.normal(10.0, 1.0, size=(500, 4))
        g1 = gmm.kmeans_init(X1, 2, seed=trial)
        g2 = gmm.kmeans_init(X2, 2, seed=trial + 1000)
        if gain_on_own_frames(g1, X1, g2, X2) < 0:
            wins += 1
    assert wins >= 19


def test_merge_gain_identical_sets_non_negative():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 4))
    g = gmm.em_fit(X, 2, seed=0)
    assert gain_on_own_frames(g, X, g, X) >= -1e-6


def test_merge_gain_is_pooled_fit_total_minus_children():
    # the gain reads the pooled fit's final likelihood pass; it must be the
    # very total a fresh pass over the pooled frames gives
    rng = np.random.default_rng(7)
    X1, X2 = rng.normal(size=(200, 4)), rng.normal(0.5, 1.0, size=(150, 4))
    g1, g2 = gmm.em_fit(X1, 2, seed=0), gmm.em_fit(X2, 3, seed=1)
    pooled = np.vstack([X1, X2])
    merged = gmm.em_refine(gmm.merge_init(g1, g2), pooled, max_iters=5, tol=0.0)
    expected = merged.log_likelihood(pooled) - (g1.log_likelihood(X1) + g2.log_likelihood(X2))
    gain, returned = merge_gain(g1, X1, g1.log_likelihood(X1), g2, X2, g2.log_likelihood(X2))
    assert gain == expected
    np.testing.assert_array_equal(returned.means, merged.means)


def test_merge_gain_needs_enough_frames():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 2))
    g = gmm.em_fit(X, 2, seed=0)
    with pytest.raises(ValueError, match="frames"):
        merge_gain(g, X[:3], 0.0, g, X[:4], 0.0)


def make_feature_matrix(X, mask=None):
    return FeatureMatrix(X, speech_mask=mask)


def synthetic_session_features(rng, n_speakers=3, dim=6, turn_frames=(60, 120), n_turns=24, sep=4.0):
    """Speakers are two-mode mixtures (speech features are multi-modal);
    modes of one speaker sit much closer together than speakers do."""
    means = [rng.normal(scale=sep, size=dim) for _ in range(n_speakers)]
    offsets = [rng.normal(scale=1.2, size=dim) for _ in range(n_speakers)]
    X, truth = [], []
    prev = -1
    for _ in range(n_turns):
        k = int(rng.integers(n_speakers))
        while k == prev:
            k = int(rng.integers(n_speakers))
        n = int(rng.integers(*turn_frames))
        modes = np.where(rng.random((n, 1)) < 0.5, 1.0, -1.0)
        X.append(rng.normal(means[k] + modes * offsets[k], 1.0, size=(n, dim)))
        truth.extend([k] * n)
        prev = k
    return np.vstack(X), np.array(truth)


def test_diarize_recovers_speaker_count_and_partition():
    rng = np.random.default_rng(9)
    X, truth = synthetic_session_features(rng)
    f = make_feature_matrix(X)
    cfg = Config(n_speakers=3, initial_states=9, min_duration_sec=0.3, seed=0)
    hyp, meta = diarize(f, cfg)
    assert meta["final_speaker_states"] == 3
    assert meta["stop_reason"] in ("reached_target_states", "no_positive_merge_gain")
    assert len(hyp.speakers) == 3
    # frame-level agreement under the best permutation
    frame_labels = np.full(len(X), -1)
    for start, end, lab in hyp.segments:
        i0 = int(round((start - 0.0125 + 0.005) / 0.010))
        i1 = int(round((end - 0.0125 + 0.005) / 0.010))
        frame_labels[max(0, i0) : min(len(X), i1)] = int(lab.replace("spk", ""))
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(3)):
        mapped = np.array([perm[t] for t in truth])
        best = max(best, (frame_labels == mapped).mean())
    assert best >= 0.90


def test_diarize_merge_trace_gains_and_meta_keys(monkeypatch):
    rng = np.random.default_rng(9)
    X, _ = synthetic_session_features(rng)
    alignments = []
    real_segmental_em = diarizer.segmental_em

    def recording_segmental_em(model, data, max_iters):
        out = real_segmental_em(model, data, max_iters=max_iters)
        alignments.append((out[0], out[1]))
        return out

    monkeypatch.setattr(diarizer, "segmental_em", recording_segmental_em)
    cfg = Config(n_speakers=3, initial_states=9, min_duration_sec=0.3, seed=0)
    _, meta = diarize(make_feature_matrix(X), cfg)
    assert isinstance(meta["skipped_merge_pairs"], list)
    assert isinstance(meta["dropped_states"], list)
    assert meta["merge_trace"]
    for entry in meta["merge_trace"]:
        assert {"pair", "gain", "runner_up", "margin", "states_after"} <= set(entry)
        assert entry["margin"] is None or entry["margin"] >= 0
    # the search reuses each state's own-frame likelihood; the gain it
    # traces is still exactly the standalone merge test's
    model, labels = alignments[0]
    first = meta["merge_trace"][0]
    a, b = first["pair"]
    assert first["gain"] == gain_on_own_frames(model.states[a], X[labels == a], model.states[b], X[labels == b])


def test_diarize_single_source_reports_stop_reason():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(800, 4))
    f = make_feature_matrix(X)
    cfg = Config(n_speakers=2, initial_states=6, min_duration_sec=0.2, seed=0)
    hyp, meta = diarize(f, cfg)
    assert meta["stop_reason"] in ("reached_target_states", "no_positive_merge_gain")
    assert meta["final_speaker_states"] >= 2 or meta["stop_reason"] == "reached_target_states"
    assert "merge_trace" in meta


def test_diarize_merges_down_to_the_speaker_count(monkeypatch):
    # Every pair gains, so only the speaker count stops the merging: 40
    # states take 38 merges, more rounds than any fixed cap short of that.
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(loc=10.0 * i, size=(30, 2)) for i in range(40)])
    monkeypatch.setattr(diarizer, "merge_gain", lambda g1, X1, ll1, g2, X2, ll2: (1.0, gmm.merge_init(g1, g2)))
    with pytest.warns(UserWarning, match="initial_states=40 outside"):
        cfg = Config(n_speakers=2, initial_states=40, min_duration_sec=0.05)
    _, meta = diarize(make_feature_matrix(X), cfg)
    assert meta["final_speaker_states"] == 2
    assert meta["stop_reason"] == "reached_target_states"
    assert len(meta["merge_trace"]) == 38


def test_diarize_deterministic_given_seed():
    rng = np.random.default_rng(13)
    X, _ = synthetic_session_features(rng, n_speakers=2, n_turns=10)
    cfg = Config(n_speakers=2, initial_states=6, min_duration_sec=0.2, seed=4)
    h1, m1 = diarize(make_feature_matrix(X), cfg)
    h2, m2 = diarize(make_feature_matrix(X.copy()), cfg)
    assert h1.segments == h2.segments
    assert m1["em_path_log_prob"] == m2["em_path_log_prob"]


def test_diarize_no_sad_mode_leaves_pauses_uncovered():
    rng = np.random.default_rng(14)
    X, _ = synthetic_session_features(rng, n_speakers=2, n_turns=12, sep=5.0)
    silence = rng.normal(12.0, 0.2, size=(len(X) // 4, X.shape[1]))
    # interleave silence blocks between speech stretches
    block = len(X) // 4
    rows, mask = [], []
    for i in range(4):
        rows.append(X[i * block : (i + 1) * block])
        mask.extend([True] * block)
        rows.append(silence[: block // 4])
        mask.extend([False] * (block // 4))
    data = np.vstack(rows)
    f = FeatureMatrix(data, speech_mask=np.array(mask))
    cfg = Config(n_speakers=2, initial_states=6, min_duration_sec=0.2, seed=2)
    hyp, meta = diarize(f, cfg)
    assert meta["no_sad_mode"]
    assert all(lab.startswith("spk") for _, _, lab in hyp.segments)
    # Non-speech gives no segment: the segments cover the speech blocks and
    # leave the silence blocks between them uncovered.
    centres = np.arange(len(data)) * config.HOP_SEC + config.WINDOW_SEC / 2.0
    covered = np.zeros(len(data), dtype=bool)
    for start, end, _ in hyp.segments:
        covered |= (centres >= start) & (centres < end)
    assert np.count_nonzero(covered != np.array(mask)) * config.HOP_SEC < 0.05


def test_diarize_no_sad_drops_a_starved_non_speech_state():
    # Four outlier frames seed the non-speech state, but a visit lasts at
    # least 20 frames, so the state loses every frame and is dropped.
    rng = np.random.default_rng(0)
    X, _ = synthetic_session_features(rng, n_speakers=2, n_turns=12)
    mid = len(X) // 2
    X[mid : mid + 4] = rng.normal(50.0, 0.5, size=(4, X.shape[1]))
    mask = np.ones(len(X), dtype=bool)
    mask[mid : mid + 4] = False
    cfg = Config(n_speakers=2, initial_states=6, min_duration_sec=0.2, seed=0)
    with pytest.warns(UserWarning, match="state 6 lost all frames"):
        hyp, meta = diarize(make_feature_matrix(X, mask), cfg)
    assert all(lab != "NS" for _, _, lab in hyp.segments)
    assert {"round": 0, "state": 6} in meta["dropped_states"]
    assert meta["final_speaker_states"] == meta["final_states"]


def test_config_defaults_and_range_warning():
    cfg = Config(n_speakers=4)
    assert cfg.initial_states == 12
    assert diarizer.COMPONENTS_PER_SEGMENT == 2
    assert cfg.min_duration_sec == 0.5
    with pytest.warns(UserWarning, match="recommended"):
        Config(n_speakers=2, initial_states=30)
    with pytest.raises(ValueError, match="speakers"):
        Config(n_speakers=1)


def test_diarize_min_duration_invariant():
    rng = np.random.default_rng(11)
    X, _ = synthetic_session_features(rng, n_speakers=2, n_turns=12)
    f = make_feature_matrix(X)
    cfg = Config(n_speakers=2, initial_states=6, min_duration_sec=0.25, seed=1)
    hyp, meta = diarize(f, cfg)
    T = meta["min_dur_frames"]
    durations = [end - start for start, end, _ in hyp.segments]
    for d in durations[:-1]:
        assert d >= T * 0.010 - 0.010 - 1e-9


def test_diarize_reports_a_run_that_ends_below_the_target():
    # Criterion 1's session, first 30 s: segmental EM drops a state in
    # rounds 3 and 7, so merging to 4 ends at 3 speaker states.
    [(_, _, meta)] = cell(*session(30.0), Config(n_speakers=4, feature_kind="mfcc91", seed=3), [1.0])
    assert [d["round"] for d in meta["dropped_states"]] == [3, 7]
    assert meta["final_speaker_states"] == 3
    assert meta["stop_reason"] == "below_target_states"


@pytest.mark.parametrize("feature_kind", ["mfcc91", "bnf"])
def test_frame_times_follow_a_prefix_of_whole_hops(feature_kind):
    # Every channel gets a copy of its own first 0.8 s (80 hops) in front,
    # and every SAD segment moves by 0.8 s. The oracle-SAD features are the
    # same bits on frames 80 later, so the merges are the same and every
    # output segment moves by exactly the prefix. Segments are compared, not
    # RTTM text: a boundary on the 3-decimal rounding edge can move by 1 ms.
    audio, _, sad = session(30.0)
    hops = 80
    shift = hops * config.HOP_SEC
    n = round(shift * audio.sample_rate)
    shifted = MultiStreamAudio([np.concatenate([ch[:n], ch]) for ch in audio.channels], audio.sample_rate)
    cfg = Config(n_speakers=4, feature_kind=feature_kind, seed=3)
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, segments in ((audio, sad), (shifted, [(s + shift, e + shift) for s, e in sad])):
            feats, _ = cli.extract_session_features(a, segments, cfg)
            runs.append((feats, *diarize(feats, cfg)))
    (f0, h0, m0), (f1, h1, m1) = runs
    assert f1.data.tobytes() == f0.data.tobytes()
    assert np.array_equal(f1.frame_index, f0.frame_index + hops)
    assert m1["merge_trace"] == m0["merge_trace"]
    assert len(h1.segments) == len(h0.segments) > 0
    for (s0, e0, lab0), (s1, e1, lab1) in zip(h0.segments, h1.segments):
        assert lab1 == lab0
        assert abs(s1 - s0 - shift) <= 1e-9 and abs(e1 - e0 - shift) <= 1e-9
