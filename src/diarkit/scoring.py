"""Diarization error rate with optimal speaker mapping.

DER = (false alarm + miss + speaker error) / total reference speech, where
the hypothesis-to-reference label mapping is the one-to-one assignment that
maximizes correctly attributed time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .segments import DiarizationHypothesis


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
    ref, hyp = reference.segments, hypothesis.segments
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
    if total == 0:
        raise ValueError(f"a {collar_sec:g} s collar excludes all reference speech: DER undefined")
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
