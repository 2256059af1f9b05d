"""Shared time-segment containers.

A segment is a ``(start_sec, end_sec, label)`` tuple; ``label`` is a speaker
name such as ``spk0`` or the reserved non-speech label ``NS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NON_SPEECH_LABEL = "NS"

# RTTM times carry 3 decimals, so segments read back from disk may overlap
# by up to a rounding step without being genuinely overlapped speech.
ROUNDING_TOL = 2e-3


def validate_segments(segments) -> list[tuple[float, float, str]]:
    """The one overlap policy for labelled segments, run by
    ``DiarizationHypothesis`` (and so by ``scoring.rttm_read``): coerce to
    ``(float, float, str)``, sort by ``(start, end)``, reject
    ``end <= start``, and clip an overlap of at most ``ROUNDING_TOL`` so the
    later segment starts at the earlier one's end (dropping it if nothing is
    left). A larger overlap raises ``ValueError``.
    """
    out: list[tuple[float, float, str]] = []
    for start, end, label in sorted((float(s), float(e), str(lab)) for s, e, lab in segments):
        if end <= start:
            raise ValueError(f"segment ({start}, {end}, {label}) has non-positive duration")
        if out and start < out[-1][1]:
            if start < out[-1][1] - ROUNDING_TOL:
                raise ValueError(f"segment ({start}, {end}, {label}) overlaps the one ending at {out[-1][1]}")
            start = out[-1][1]
            if end <= start:
                continue
        out.append((start, end, label))
    return out


@dataclass
class DiarizationHypothesis:
    """Ordered, non-overlapping labeled segments covering the speech region."""

    segments: list[tuple[float, float, str]] = field(default_factory=list)

    def __post_init__(self):
        self.segments = validate_segments(self.segments)

    @property
    def speakers(self) -> list[str]:
        """Distinct speaker labels in first-appearance order."""
        seen = []
        for _, _, lab in self.segments:
            if lab != NON_SPEECH_LABEL and lab not in seen:
                seen.append(lab)
        return seen
