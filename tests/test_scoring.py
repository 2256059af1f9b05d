import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.audio_io import demo_script
from diarkit.scoring import score_der
from diarkit.segments import DiarizationHypothesis, rttm_format, rttm_read


REF = DiarizationHypothesis([(0.0, 10.0, "A"), (10.0, 20.0, "B")])


def test_identity_hypothesis_scores_zero():
    out = score_der(REF, REF)
    assert out.der == 0.0
    assert out.fa_sec == out.miss_sec == out.err_sec == 0.0
    assert out.total_sec == 20.0


@pytest.mark.parametrize("seed", range(1, 21))
def test_long_reference_self_scores_exactly_zero(seed):
    # 30 min of unevenly shared 4-speaker turns: subtracting the credited
    # time from the total left +-1.4e-16 of speaker error on 8 of these seeds.
    script = demo_script(4, 1800.0, seed=seed, shares=[0.4, 0.3, 0.2, 0.1])
    ref = script.reference()
    out = score_der(ref, ref)
    assert out.err_sec == 0.0
    assert out.der == 0.0


def test_renamed_labels_score_zero():
    hyp = DiarizationHypothesis([(0.0, 10.0, "x9"), (10.0, 20.0, "q2")])
    assert score_der(REF, hyp).der == 0.0


def test_hand_worked_example():
    hyp = DiarizationHypothesis([(0.0, 12.0, "spk1"), (12.0, 20.0, "spk2")])
    out = score_der(REF, hyp)
    assert out.mapping == {"spk1": "A", "spk2": "B"}
    assert abs(out.err_sec - 2.0) < 1e-12
    assert abs(out.der - 0.10) < 1e-12


def test_merged_hypothesis_half_error():
    hyp = DiarizationHypothesis([(0.0, 20.0, "only")])
    out = score_der(REF, hyp)
    assert abs(out.der - 0.5) < 1e-12


def test_false_alarm_and_miss():
    ref = DiarizationHypothesis([(0.0, 10.0, "A")])
    hyp = DiarizationHypothesis([(5.0, 15.0, "h")])
    out = score_der(ref, hyp)
    assert abs(out.miss_sec - 5.0) < 1e-12
    assert abs(out.fa_sec - 5.0) < 1e-12
    assert abs(out.err_sec - 0.0) < 1e-12
    assert abs(out.der - 1.0) < 1e-12


def test_label_permutation_invariance():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 60, size=12))
    hyp = DiarizationHypothesis([(t[i], t[i + 1], f"s{i % 3}") for i in range(11) if t[i + 1] - t[i] > 0.01])
    ref = DiarizationHypothesis([(0.0, 20.0, "A"), (20.0, 40.0, "B"), (40.0, 60.0, "C")])
    base = score_der(ref, hyp).der
    renamed = DiarizationHypothesis([(s, e, {"s0": "z", "s1": "y", "s2": "x"}[lab]) for s, e, lab in hyp.segments])
    assert abs(score_der(ref, renamed).der - base) < 1e-12


def test_collar_excludes_boundary_time():
    hyp = DiarizationHypothesis([(0.0, 10.5, "u"), (10.5, 20.0, "v")])  # half-second late boundary
    strict = score_der(REF, hyp)
    eased = score_der(REF, hyp, collar_sec=0.5)
    assert strict.err_sec > 0
    assert eased.err_sec == 0.0
    assert eased.total_sec < strict.total_sec


def test_collar_monotone_scored_time():
    hyp = DiarizationHypothesis([(0.0, 9.0, "u"), (9.0, 20.0, "v")])
    prev_scored = None
    for collar in (0.0, 0.1, 0.25, 0.5):
        out = score_der(REF, hyp, collar_sec=collar)
        scored = out.total_sec + out.fa_sec
        if prev_scored is not None:
            assert scored <= prev_scored + 1e-12
        prev_scored = scored


def test_component_additivity():
    ref = [(0.0, 5.0, "A"), (6.0, 11.0, "B"), (12.0, 17.0, "A")]
    hyp = [(0.0, 4.0, "p"), (4.0, 9.0, "q"), (11.5, 16.0, "p")]
    out = score_der(DiarizationHypothesis(ref), DiarizationHypothesis(hyp))
    # components recomputed by brute-force sampling of the timeline
    step = 0.001
    grid = np.arange(0.0, 17.0, step) + step / 2

    def label_at(segs, t):
        for s, e, lab in segs:
            if s <= t < e:
                return lab
        return None

    fa = miss = err = total = 0.0
    mapping = out.mapping
    for t in grid:
        r, h = label_at(ref, t), label_at(hyp, t)
        if r is not None:
            total += step
        if r is None and h is not None:
            fa += step
        elif r is not None and h is None:
            miss += step
        elif r is not None and h is not None and mapping.get(h) != r:
            err += step
    assert abs(out.fa_sec - fa) < 0.01
    assert abs(out.miss_sec - miss) < 0.01
    assert abs(out.err_sec - err) < 0.01
    assert abs(out.total_sec - total) < 0.01


def test_empty_reference_rejected():
    with pytest.raises(ValueError, match="empty reference"):
        score_der(DiarizationHypothesis([]), DiarizationHypothesis([(0.0, 1.0, "a")]))


@pytest.mark.parametrize("collar", [5.0, 30.0])
def test_collar_over_all_reference_speech_rejected(collar):
    # Every instant of REF lies within 5 s of one of its boundaries.
    with pytest.raises(ValueError, match="excludes all reference speech: DER undefined"):
        score_der(REF, DiarizationHypothesis([(0.0, 20.0, "a")]), collar_sec=collar)


def test_overlapping_reference_rejected(tmp_path):
    path = tmp_path / "ref.rttm"
    path.write_text("SPEAKER r 1 0.000 5.000 <NA> <NA> A <NA> <NA>\nSPEAKER r 1 4.000 4.000 <NA> <NA> B <NA> <NA>\n")
    with pytest.raises(ValueError, match="overlap"):
        rttm_read(str(path))


def test_ns_segments_count_as_silence():
    ref = DiarizationHypothesis([(0.0, 10.0, "A")])
    hyp = DiarizationHypothesis([(0.0, 5.0, "a"), (5.0, 10.0, "NS")])
    out = score_der(ref, hyp)
    assert abs(out.miss_sec - 5.0) < 1e-12
    assert out.fa_sec == 0.0


def test_rttm_round_trip(tmp_path):
    hyp = DiarizationHypothesis([(0.5, 2.5, "spk0"), (2.5, 7.25, "spk1"), (8.0, 9.125, "spk0")])
    path = tmp_path / "h.rttm"
    path.write_text(rttm_format(hyp, file_id="sess"))
    assert rttm_read(str(path)) == hyp


def test_rttm_adjacent_segments_do_not_overlap():
    # The diarizer's boundaries (k * hop + window / 2 - hop / 2 = k * 0.01 +
    # 0.0075 s) sit on the millisecond rounding edge.
    bounds = [k * 0.01 + 0.0125 - 0.005 for k in range(1, 3001)]
    segs = [(a, b, f"spk{i % 2}") for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    # Read the written times directly: rttm_read would clip a 1 ms overlap.
    fields = [line.split() for line in rttm_format(DiarizationHypothesis(segs), "sess").splitlines()]
    back = [(float(f[3]), float(f[3]) + float(f[4])) for f in fields]
    assert len(back) == len(segs)
    overlaps = [prev[1] - nxt[0] for prev, nxt in zip(back, back[1:])]
    assert max(overlaps) <= 1e-9


def test_rttm_single_line_fields(tmp_path):
    path = tmp_path / "one.rttm"
    path.write_text("SPEAKER s1 1 0.500 2.000 <NA> <NA> spk0 <NA> <NA>\n")
    assert rttm_read(str(path)).segments == [(0.5, 2.5, "spk0")]


def test_rttm_wrong_field_count(tmp_path):
    path = tmp_path / "bad.rttm"
    path.write_text("SPEAKER s1 1 0.500 2.000 <NA> spk0\n")
    with pytest.raises(ValueError, match="line 1"):
        rttm_read(str(path))


def test_rttm_negative_duration(tmp_path):
    path = tmp_path / "neg.rttm"
    path.write_text("SPEAKER s1 1 5.000 -2.000 <NA> <NA> spk0 <NA> <NA>\n")
    with pytest.raises(ValueError, match="negative"):
        rttm_read(str(path))


def test_rttm_negative_start(tmp_path):
    path = tmp_path / "neg.rttm"
    path.write_text("SPEAKER s1 1 0.000 1.000 <NA> <NA> a <NA> <NA>\nSPEAKER s1 1 -5.000 10.000 <NA> <NA> b <NA> <NA>\n")
    with pytest.raises(ValueError, match=r"neg\.rttm: line 2: negative start time"):
        rttm_read(str(path))


@pytest.mark.parametrize("tbeg, tdur", [("nan", "1.000"), ("inf", "1.000"), ("1.000", "inf"), ("1.000", "nan")])
def test_rttm_non_finite_times(tmp_path, tbeg, tdur):
    path = tmp_path / "bad.rttm"
    path.write_text(
        f"SPEAKER s1 1 0.000 1.000 <NA> <NA> a <NA> <NA>\nSPEAKER s1 1 {tbeg} {tdur} <NA> <NA> b <NA> <NA>\n"
    )
    with pytest.raises(ValueError, match=r"bad\.rttm: line 2: non-finite"):
        rttm_read(str(path))


def test_rttm_ignores_non_speaker_lines(tmp_path):
    path = tmp_path / "extra.rttm"
    path.write_text(";; comment\nSPKR-INFO x 1 <NA> <NA> <NA> unknown spk0 <NA>\nSPEAKER s1 1 1.000 1.000 <NA> <NA> a <NA> <NA>\n")
    assert rttm_read(str(path)).segments == [(1.0, 2.0, "a")]


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.01, 5)), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_rttm_round_trip_random_times(intervals):
    segs = []
    t = 0.0
    for start_off, dur in intervals:
        t += round(start_off, 3)
        segs.append((round(t, 3), round(t + round(dur, 3), 3), "spk0"))
        t += round(dur, 3) + 0.001
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "r.rttm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rttm_format(DiarizationHypothesis(segs), "sess"))
        back = rttm_read(path).segments
    assert len(back) == len(segs)
    for (s1, e1, _), (s2, e2, _) in zip(segs, back):
        assert abs(s1 - s2) < 1e-9 and abs(e1 - e2) < 5e-3
