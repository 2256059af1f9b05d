"""Diarization error rate with optimal speaker mapping, plus RTTM I/O.

DER = (false alarm + miss + speaker error) / total reference speech, where
the hypothesis-to-reference label mapping is the one-to-one assignment that
maximizes correctly attributed time. Segments carrying the reserved
non-speech label count as silence on either side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .segments import NON_SPEECH_LABEL, DiarizationHypothesis, validate_segments


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

    def as_dict(self) -> dict:
        return {
            "fa_sec": self.fa_sec,
            "miss_sec": self.miss_sec,
            "err_sec": self.err_sec,
            "total_sec": self.total_sec,
            "der": self.der,
            "mapping": self.mapping,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def report(self) -> str:
        return (
            f"false alarm   {self.fa_sec:10.3f} s\n"
            f"miss          {self.miss_sec:10.3f} s\n"
            f"speaker error {self.err_sec:10.3f} s\n"
            f"total speech  {self.total_sec:10.3f} s\n"
            f"DER           {self.der:10.4f}\n"
            f"mapping       {self.mapping}"
        )


def _speech_segments(obj) -> list[tuple[float, float, str]]:
    segs = obj.segments if isinstance(obj, DiarizationHypothesis) else obj
    return [seg for seg in validate_segments(segs) if seg[2] != NON_SPEECH_LABEL]


def _labels_at(segs, points):
    """Label of each atomic interval midpoint, or None."""
    starts = np.array([s[0] for s in segs])
    ends = np.array([s[1] for s in segs])
    mids = (points[:-1] + points[1:]) / 2.0
    idx = np.searchsorted(starts, mids, side="right") - 1
    out = np.full(len(mids), -1, dtype=np.int64)
    valid = idx >= 0
    valid[valid] &= mids[valid] < ends[idx[valid]]
    out[valid] = idx[valid]
    return out


def score_der(reference, hypothesis, collar_sec: float = 0.0) -> DerBreakdown:
    """Cut the timeline at every boundary, attribute each atomic interval,
    and pick the hypothesis-label mapping that maximizes credited time.

    ``collar_sec`` excludes that much on both sides of every reference
    boundary from all components, including the total.
    """
    ref = _speech_segments(reference)
    hyp = _speech_segments(hypothesis)
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

    ref_idx = _labels_at(ref, points)
    hyp_idx = _labels_at(hyp, points)
    ref_names = sorted({s[2] for s in ref})
    hyp_names = sorted({s[2] for s in hyp})
    ref_of = {i: ref_names.index(s[2]) for i, s in enumerate(ref)}
    hyp_of = {i: hyp_names.index(s[2]) for i, s in enumerate(hyp)}

    total = float(durs[scored & (ref_idx >= 0)].sum())
    fa = float(durs[scored & (ref_idx < 0) & (hyp_idx >= 0)].sum())
    miss = float(durs[scored & (ref_idx >= 0) & (hyp_idx < 0)].sum())

    overlap = np.zeros((len(ref_names), len(hyp_names)))
    both = scored & (ref_idx >= 0) & (hyp_idx >= 0)
    for i in np.where(both)[0]:
        overlap[ref_of[ref_idx[i]], hyp_of[hyp_idx[i]]] += durs[i]

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


def rttm_format(hyp, file_id: str) -> str:
    """SPEAKER records, one per segment; non-speech segments are omitted.

    Start and end are rounded to the millisecond before the duration is
    taken, so a segment's written end is the next one's written start.
    """
    segs = hyp.segments if isinstance(hyp, DiarizationHypothesis) else hyp
    lines = []
    for start, end, label in segs:
        if label == NON_SPEECH_LABEL:
            continue
        start, end = round(start, 3), round(end, 3)
        lines.append(f"SPEAKER {file_id} 1 {start:.3f} {end - start:.3f} <NA> <NA> {label} <NA> <NA>\n")
    return "".join(lines)


def rttm_read(path: str) -> list[tuple[float, float, str]]:
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
    segs.sort(key=lambda s: s[0])
    return segs
