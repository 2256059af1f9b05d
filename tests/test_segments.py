import numpy as np
import pytest

from diarkit import audio_io, features, scoring
from diarkit.segments import DiarizationHypothesis, rttm_read


def _hypothesis(segs, tmp_path):
    return DiarizationHypothesis(segs).segments


def _rttm_file(segs, tmp_path):
    path = tmp_path / "segs.rttm"
    path.write_text("".join(f"SPEAKER x 1 {s!r} {e - s!r} <NA> <NA> {lab} <NA> <NA>\n" for s, e, lab in segs))
    return rttm_read(str(path)).segments


def _scorer(segs, tmp_path):
    """``score_der`` returns no segments. The hypothesis it is given scores
    as identical to itself, clipped boundaries included."""
    hyp = DiarizationHypothesis(segs)
    out = scoring.score_der(hyp, hyp)
    assert (out.fa_sec, out.miss_sec, out.err_sec) == (0.0, 0.0, 0.0)
    return hyp.segments


# (segments, what every path returns, or the error every path raises)
CASES = {
    "1ms_overlap": (
        [(0.0, 1.001, "a"), (1.0, 2.0, "b")],
        [(0.0, 1.001, "a"), (1.001, 2.0, "b")],
    ),
    "clipped_to_nothing": (
        [(0.0, 1.001, "a"), (1.0, 1.001, "b"), (1.001, 2.0, "a")],
        [(0.0, 1.001, "a"), (1.001, 2.0, "a")],
    ),
    "5ms_overlap": ([(0.0, 1.005, "a"), (1.0, 2.0, "b")], "overlap"),
    "unsorted": (
        [(1.0, 2.0, "b"), (0.0, 1.0, "a")],
        [(0.0, 1.0, "a"), (1.0, 2.0, "b")],
    ),
    "zero_length": ([(0.0, 1.0, "a"), (1.0, 1.0, "b")], "non-positive duration"),
    "ns": (
        [(0.0, 2.0, "a"), (1.0, 3.0, "NS"), (3.0, 4.0, "b")],
        [(0.0, 2.0, "a"), (3.0, 4.0, "b")],
    ),
}


@pytest.mark.parametrize("path", [_hypothesis, _rttm_file, _scorer], ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("case", CASES)
def test_every_segment_path_applies_one_overlap_policy(tmp_path, path, case):
    segs, expected = CASES[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            path(segs, tmp_path)
    else:
        assert path(segs, tmp_path) == expected


def test_labelled_sad_file_is_overlapping_intervals(tmp_path):
    # Labels in a SAD file are ignored, so turns of two speakers that overlap
    # by 3 s are two intervals, and the speech mask is their union.
    path = tmp_path / "sad.txt"
    path.write_text("2.0 5.0 b\n0.0 3.0 a\n")
    sad = audio_io.read_segments(str(path))
    assert sad == [(0.0, 3.0), (2.0, 5.0)]
    frames = features.FeatureMatrix(data=np.zeros((800, 1)))
    mask = features.speech_frame_mask(frames, sad)
    np.testing.assert_array_equal(mask, features.speech_frame_mask(frames, [(0.0, 5.0)]))
