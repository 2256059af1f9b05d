import pytest

from diarkit import audio_io, scoring
from diarkit.segments import DiarizationHypothesis


def _hypothesis(segs, tmp_path):
    return DiarizationHypothesis(segs).segments


def _text_file(segs, tmp_path):
    path = tmp_path / "segs.txt"
    path.write_text("".join(f"{s!r} {e!r} {lab}\n" for s, e, lab in segs))
    return audio_io.read_segments(str(path))


def _rttm_file(segs, tmp_path):
    path = tmp_path / "segs.rttm"
    path.write_text("".join(f"SPEAKER x 1 {s!r} {e - s!r} <NA> <NA> {lab} <NA> <NA>\n" for s, e, lab in segs))
    return audio_io.read_segments(str(path))


def _scorer(segs, tmp_path):
    """``score_der`` returns no segments. It must reject what the others
    reject, and otherwise score the list and the hypothesis's reading of it
    as identical, both ways round."""
    scoring.score_der(segs, segs)
    clipped = DiarizationHypothesis(segs).segments
    for ref, hyp in ((segs, clipped), (clipped, segs)):
        out = scoring.score_der(ref, hyp)
        assert (out.fa_sec, out.miss_sec, out.err_sec) == (0.0, 0.0, 0.0)
    return clipped


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
    "zero_length": ([(0.0, 1.0, "a"), (1.0, 1.0, "b")], "non-positive duration|end before start"),
}


@pytest.mark.parametrize("path", [_hypothesis, _text_file, _rttm_file, _scorer], ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("case", CASES)
def test_every_segment_path_applies_one_overlap_policy(tmp_path, path, case):
    segs, expected = CASES[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            path(segs, tmp_path)
    else:
        assert path(segs, tmp_path) == expected
