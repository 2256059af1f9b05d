"""Labelled time segments and their RTTM I/O.

A segment is a ``(start_sec, end_sec, label)`` tuple with a speaker label
such as ``spk0``. Non-speech is the absence of a segment: a segment labelled
with the reserved ``NS`` is dropped wherever segments are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

NON_SPEECH_LABEL = "NS"

# RTTM times carry 3 decimals, so segments read back from disk may overlap
# by up to a rounding step without being genuinely overlapped speech.
ROUNDING_TOL = 2e-3


def validate_segments(segments) -> list[tuple[float, float, str]]:
    """The one overlap policy for labelled segments, run by
    ``DiarizationHypothesis`` (and so by ``rttm_read``): coerce to
    ``(float, float, str)``, sort by ``(start, end)``, reject
    ``end <= start``, drop ``NON_SPEECH_LABEL`` segments, and clip an
    overlap of at most ``ROUNDING_TOL`` so the later segment starts at the
    earlier one's end (dropping it if nothing is left). A larger overlap
    raises ``ValueError``.
    """
    out: list[tuple[float, float, str]] = []
    for start, end, label in sorted((float(s), float(e), str(lab)) for s, e, lab in segments):
        if end <= start:
            raise ValueError(f"segment ({start}, {end}, {label}) has non-positive duration")
        if label == NON_SPEECH_LABEL:
            continue
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
    """Ordered, non-overlapping speaker segments; gaps are non-speech."""

    segments: list[tuple[float, float, str]] = field(default_factory=list)

    def __post_init__(self):
        self.segments = validate_segments(self.segments)

    @property
    def speakers(self) -> list[str]:
        """Distinct speaker labels in first-appearance order."""
        return list(dict.fromkeys(lab for _, _, lab in self.segments))


def rttm_format(hyp: DiarizationHypothesis, file_id: str) -> str:
    """SPEAKER records, one per segment.

    Start and end are rounded to the millisecond before the duration is
    taken, so a segment's written end is the next one's written start.
    """
    lines = []
    for start, end, label in hyp.segments:
        start, end = round(start, 3), round(end, 3)
        lines.append(f"SPEAKER {file_id} 1 {start:.3f} {end - start:.3f} <NA> <NA> {label} <NA> <NA>\n")
    return "".join(lines)


def rttm_read(path: str) -> DiarizationHypothesis:
    """The SPEAKER records of an RTTM file; other lines are skipped."""
    segs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or not line.startswith("SPEAKER"):
                continue
            fields = line.split()
            if len(fields) != 10:
                raise ValueError(f"{path}: line {lineno}: expected 10 RTTM fields, got {len(fields)}")
            try:
                tbeg, tdur = float(fields[3]), float(fields[4])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad time fields") from exc
            if not (math.isfinite(tbeg) and math.isfinite(tbeg + tdur)):
                raise ValueError(f"{path}: line {lineno}: non-finite time fields")
            if tbeg < 0 or tdur < 0:
                raise ValueError(f"{path}: line {lineno}: negative start time or duration")
            segs.append((tbeg, tbeg + tdur, fields[7]))
    return DiarizationHypothesis(segs)
