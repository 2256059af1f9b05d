"""Diarization error rate with optimal speaker mapping, plus RTTM I/O.

DER = (false alarm + miss + speaker error) / total reference speech, where
the hypothesis-to-reference label mapping is the one-to-one assignment that
maximizes correctly attributed time. Segments carrying the reserved
non-speech label count as silence on either side.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .segments import NON_SPEECH_LABEL, DiarizationHypothesis


@dataclass
class DerBreakdown:
    fa_sec: float
    miss_sec: float
    err_sec: float
    total_sec: float
    mapping: dict[str, str]

    @property
    def der(self) -> float:
        return (self.fa_sec + self.miss_sec + self.err_sec) / self.total_sec

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "der": self.der}, indent=2, sort_keys=True)

    def report(self) -> str:
        return (
            f"false alarm   {self.fa_sec:10.3f} s\n"
            f"miss          {self.miss_sec:10.3f} s\n"
            f"speaker error {self.err_sec:10.3f} s\n"
            f"total speech  {self.total_sec:10.3f} s\n"
            f"DER           {self.der:10.4f}\n"
            f"mapping       {self.mapping}"
        )


def _speaker_codes(segs, mids):
    """Index into the sorted speaker names of the segment holding each
    midpoint, or -1 where none does; and those names."""
    names = sorted({lab for _, _, lab in segs})
    starts = np.array([s for s, _, _ in segs])
    ends = np.array([e for _, e, _ in segs])
    seg_codes = np.searchsorted(names, [lab for _, _, lab in segs])
    idx = np.searchsorted(starts, mids, side="right") - 1
    inside = idx >= 0
    inside[inside] &= mids[inside] < ends[idx[inside]]
    codes = np.full(len(mids), -1)
    codes[inside] = seg_codes[idx[inside]]
    return codes, names


def score_der(
    reference: DiarizationHypothesis, hypothesis: DiarizationHypothesis, collar_sec: float = 0.0
) -> DerBreakdown:
    """Cut the timeline at every boundary, attribute each atomic interval,
    and pick the hypothesis-label mapping that maximizes credited time.

    ``collar_sec`` excludes that much on both sides of every reference
    boundary from all components, including the total.
    """
    ref = [seg for seg in reference.segments if seg[2] != NON_SPEECH_LABEL]
    hyp = [seg for seg in hypothesis.segments if seg[2] != NON_SPEECH_LABEL]
    if not ref:
        raise ValueError("empty reference speech: DER undefined")

    points = sorted({p for s in ref for p in s[:2]} | {p for s in hyp for p in s[:2]})
    excluded = []
    if collar_sec > 0:
        for s in ref:
            excluded.append((s[0] - collar_sec, s[0] + collar_sec))
            excluded.append((s[1] - collar_sec, s[1] + collar_sec))
        points = sorted(set(points) | {p for iv in excluded for p in iv})
    points = np.array(points)
    durs = np.diff(points)
    mids = (points[:-1] + points[1:]) / 2.0

    scored = np.ones(len(mids), dtype=bool)
    for lo, hi in excluded:
        scored &= ~((mids > lo) & (mids < hi))

    ref_code, ref_names = _speaker_codes(ref, mids)
    hyp_code, hyp_names = _speaker_codes(hyp, mids)

    total = float(durs[scored & (ref_code >= 0)].sum())
    fa = float(durs[scored & (ref_code < 0) & (hyp_code >= 0)].sum())
    miss = float(durs[scored & (ref_code >= 0) & (hyp_code < 0)].sum())

    # np.add.at accumulates each cell in interval order.
    overlap = np.zeros((len(ref_names), len(hyp_names)))
    both = scored & (ref_code >= 0) & (hyp_code >= 0)
    np.add.at(overlap, (ref_code[both], hyp_code[both]), durs[both])

    # Speaker error is the overlap the mapping leaves uncredited. Summing the
    # unmatched cells (rather than subtracting the credited time from the
    # total) makes a perfect hypothesis score exactly 0.
    mapping: dict[str, str] = {}
    unmatched = np.ones(overlap.shape, dtype=bool)
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        unmatched[rows, cols] = False
        for r, c in zip(rows, cols):
            if overlap[r, c] > 0:
                mapping[hyp_names[c]] = ref_names[r]
    err = float(overlap[unmatched].sum())
    return DerBreakdown(fa_sec=fa, miss_sec=miss, err_sec=err, total_sec=total, mapping=mapping)


def rttm_format(hyp: DiarizationHypothesis, file_id: str) -> str:
    """SPEAKER records, one per segment; non-speech segments are omitted.

    Start and end are rounded to the millisecond before the duration is
    taken, so a segment's written end is the next one's written start.
    """
    lines = []
    for start, end, label in hyp.segments:
        if label == NON_SPEECH_LABEL:
            continue
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
