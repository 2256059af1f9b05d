import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.dominance import (
    dominance_report,
    dominance_scores,
    extract_features,
    normalize_and_combine,
)
from diarkit.segments import DiarizationHypothesis


def cues_for(hyp, energies=None, **kwargs):
    if energies is None:
        energies = np.ones(len(hyp.segments))
    return extract_features(hyp, energies, segment_len_sec=300.0, **kwargs)


def test_single_segment_counts():
    hyp = DiarizationHypothesis([(5.0, 15.0, "a")])
    speakers, cues = cues_for(hyp, energies=[2.5], session_duration_sec=300.0)
    assert speakers == ["a"] and cues.shape == (1, 1, 3)
    assert tuple(cues[0, 0]) == (1, 10.0, 2.5)


def test_boundary_straddling_segment_splits():
    hyp = DiarizationHypothesis([(295.0, 305.0, "a")])
    _, cues = cues_for(hyp, energies=[4.0], session_duration_sec=600.0)
    turns, spts, spens = cues[:, 0].T
    assert turns[0] == 1 and turns[1] == 1
    assert abs(spts[0] - 5.0) < 1e-9
    assert abs(spts[1] - 5.0) < 1e-9
    assert abs(spens[0] - 2.0) < 1e-9


def test_alternating_turns_arithmetic():
    segs = []
    t = 0.0
    for i in range(150):
        segs.append((t, t + 2.0, "a" if i % 2 == 0 else "b"))
        t += 2.0
    hyp = DiarizationHypothesis(segs)
    speakers, cues = cues_for(hyp, session_duration_sec=300.0)
    a, b = cues[0, speakers.index("a")], cues[0, speakers.index("b")]
    assert a[0] == 75 and b[0] == 75
    assert abs(a[1] - 150.0) < 1e-9
    assert abs(b[1] - 150.0) < 1e-9


def test_ns_segments_excluded():
    hyp = DiarizationHypothesis([(0.0, 5.0, "a"), (5.0, 8.0, "NS"), (8.0, 12.0, "a")])
    assert len(hyp.segments) == 2
    speakers, cues = cues_for(hyp, energies=[1.0, 1.0], session_duration_sec=300.0)
    assert speakers == ["a"]
    assert cues[0, 0, 0] == 2
    assert abs(cues[0, 0, 1] - 9.0) < 1e-9


def test_empty_hypothesis_rejected():
    with pytest.raises(ValueError, match="empty"):
        extract_features(DiarizationHypothesis([]), np.array([]), 300.0, 300.0)


def mixed_session_table(rng, n_windows=4, n_speakers=3):
    segs, energies = [], []
    t = 0.0
    for w in range(n_windows):
        for s in range(n_speakers):
            dur = float(rng.uniform(2, 20))
            segs.append((t, t + dur, f"spk{s}"))
            energies.append(dur * rng.uniform(0.5, 2.0))
            t += dur + 1.0
    total = n_windows * 300.0
    return DiarizationHypothesis(segs), np.array(energies), total


def test_zscore_and_projection_properties():
    rng = np.random.default_rng(0)
    hyp, energies, total = mixed_session_table(rng)
    # segments were laid out densely; re-spread over windows via duration
    _, cues = extract_features(hyp, energies, 300.0, hyp.segments[-1][1])
    comb, axis, eig = normalize_and_combine(cues)
    assert comb.shape == cues.shape[:2]
    assert abs(np.linalg.norm(axis) - 1.0) < 1e-12
    assert (np.diff(eig) <= 1e-12).all() and (eig >= 0).all()
    # projection variance equals the top eigenvalue
    assert abs(comb.var() - eig[0]) < 1e-10


def test_perfectly_correlated_features_rank_one():
    rng = np.random.default_rng(1)
    hyp_segments = []
    energies = []
    t = 0.0
    for w in range(3):
        for s in range(2):
            dur = float(rng.uniform(1, 10))
            hyp_segments.append((t, t + dur, f"spk{s}"))
            energies.append(dur)  # spens == spts exactly
            t += dur + 0.5
    hyp = DiarizationHypothesis(hyp_segments)
    _, cues = extract_features(hyp, np.array(energies), 300.0, hyp.segments[-1][1])
    # turns is constant (1 per window) so only spts/spens vary, identically
    _, axis, eig = normalize_and_combine(cues)
    expected = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(np.abs(axis), expected, atol=1e-10)
    assert eig[0] > 0
    assert eig[1] < 1e-10


def test_degenerate_session_rejected():
    # two windows x two speakers, every cell (1 turn, 5 s, energy 2): no
    # variance anywhere
    cues = np.tile([1.0, 5.0, 2.0], (2, 2, 1))
    with pytest.raises(ValueError, match="degenerate"):
        normalize_and_combine(cues)


def test_single_speaker_session_scores_one():
    hyp = DiarizationHypothesis([(0.0, 10.0, "solo")])
    report = dominance_report(hyp, np.array([3.0]), segment_len_sec=300.0, session_duration_sec=250.0)
    assert report.speakers == ["solo"]
    np.testing.assert_allclose(report.ds, 1.0)


def test_softmax_equal_inputs():
    ds = dominance_scores(np.zeros(5))
    np.testing.assert_allclose(ds, 0.2, atol=1e-15)


def test_softmax_analytic_two_speaker():
    ds = dominance_scores(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(ds, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_overflow_safe():
    ds = dominance_scores(np.array([1000.0, 0.0]))
    assert abs(ds[0] - 1.0) < 1e-12
    assert ds[1] >= 0.0
    assert np.isfinite(ds).all()


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_softmax_properties(values, shift):
    p = np.array(values)
    ds = dominance_scores(p)
    assert abs(ds.sum() - 1.0) < 1e-12
    assert (ds > 0).all()
    shifted = dominance_scores(p + shift)
    np.testing.assert_allclose(shifted, ds, atol=1e-12)
    # monotone: larger input, larger score
    order = np.argsort(p)
    assert (np.diff(ds[order]) >= -1e-15).all()


def test_report_csv_layout():
    rng = np.random.default_rng(2)
    hyp, energies, _ = mixed_session_table(rng, n_windows=2, n_speakers=2)
    report = dominance_report(hyp, energies, 300.0, hyp.segments[-1][1])
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "segment,speaker,turns,spts,spens,comb,ds"
    assert len(lines) == 1 + report.n_segments * len(report.speakers)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == report.speakers[0]


def test_ds_rows_sum_to_one():
    rng = np.random.default_rng(3)
    hyp, energies, _ = mixed_session_table(rng, n_windows=5, n_speakers=4)
    report = dominance_report(hyp, energies, 300.0, hyp.segments[-1][1])
    np.testing.assert_allclose(report.ds.sum(axis=1), 1.0, atol=1e-12)
    assert (report.ds > 0).all()


def test_silent_speaker_has_minimal_score_with_positive_loadings():
    segs = [(0.0, 50.0, "talker"), (60.0, 100.0, "talker"), (150.0, 170.0, "quiet")]
    hyp = DiarizationHypothesis(segs)
    report = dominance_report(hyp, np.array([5.0, 4.0, 1.0]), segment_len_sec=300.0, session_duration_sec=600.0)
    if (report.pca_axis >= 0).all():
        # window 1 (300-600s): quiet speaker silent, talker silent too; skip
        w = 0
        q = report.speakers.index("quiet")
        assert report.ds[w, q] == report.ds[w].min()


def test_softmax_over_last_axis():
    comb = np.array([[np.log(2.0), 0.0], [0.0, 1000.0], [3.0, 3.0]])
    np.testing.assert_allclose(dominance_scores(comb), [dominance_scores(row) for row in comb], atol=0)
