"""Unsupervised dominance scores.

Per analysis window (5 minutes by default) and speaker, three cues are
collected from the diarization output: turn count, total speaking time,
and wavelet-packet speech energy. The cues are z-scored over the whole
session, combined into a single value by projecting onto the first
principal axis, and turned into per-window probabilities with a softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .segments import DiarizationHypothesis

DEFAULT_SEGMENT_LEN_SEC = 300.0
# RTTM's time resolution: finer windows add nothing but windows.
MIN_SEGMENT_LEN_SEC = 0.001

FEATURE_NAMES = ("turns", "spts", "spens")


@dataclass
class DominanceReport:
    speakers: list[str]
    turns: np.ndarray  # (windows, speakers)
    spts: np.ndarray
    spens: np.ndarray
    comb: np.ndarray
    ds: np.ndarray
    pca_axis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.turns.shape[0]

    def to_csv(self) -> str:
        lines = ["segment,speaker,turns,spts,spens,comb,ds"]
        for w in range(self.n_segments):
            for s, spk in enumerate(self.speakers):
                lines.append(
                    f"{w},{spk},{self.turns[w, s]:.6g},{self.spts[w, s]:.6g},"
                    f"{self.spens[w, s]:.6g},{self.comb[w, s]:.6g},{self.ds[w, s]:.6g}"
                )
        return "\n".join(lines) + "\n"


def extract_features(
    hyp: DiarizationHypothesis, energies: np.ndarray, segment_len_sec: float, session_duration_sec: float
) -> tuple[list[str], np.ndarray]:
    """Per-window, per-speaker turn counts, speaking time, and energy.

    Returns the sorted speaker labels and a ``(windows, speakers, 3)`` array
    of cues in ``FEATURE_NAMES`` order. ``energies`` holds one
    wavelet-packet band energy per hypothesis segment. A segment straddling
    a window boundary contributes time and energy pro-rata and one turn to
    each window it touches.
    """
    segs = hyp.segments
    speakers = sorted(hyp.speakers)
    if not speakers:
        raise ValueError("empty hypothesis: no speaker segments")
    if len(energies) != len(segs):
        raise ValueError("need one energy value per hypothesis segment")
    n_windows = max(1, math.ceil(session_duration_sec / segment_len_sec))

    cues = np.zeros((n_windows, len(speakers), len(FEATURE_NAMES)))
    for (start, end, label), energy in zip(segs, energies):
        s = speakers.index(label)
        w0 = min(int(start // segment_len_sec), n_windows - 1)
        w1 = min(int(np.nextafter(end, -np.inf) // segment_len_sec), n_windows - 1)
        for w in range(w0, w1 + 1):
            lo = max(start, w * segment_len_sec)
            hi = min(end, (w + 1) * segment_len_sec)
            if hi <= lo:
                continue
            frac = (hi - lo) / (end - start)
            cues[w, s] += (1.0, hi - lo, float(energy) * frac)
    return speakers, cues


def normalize_and_combine(cues: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Session-level z-scoring of the three cues, then projection onto the
    leading principal axis.

    Takes the ``(windows, speakers, 3)`` cues of ``extract_features`` and
    returns the ``(windows, speakers)`` combined feature, the unit axis and
    the eigenvalues in descending order. The axis sign is fixed so the
    speaking-time loading is positive (turn loading decides ties), keeping
    "larger means more dominant" stable.
    """
    n_windows, n_speakers, _ = cues.shape
    rows = cues.reshape(-1, 3)
    mean = rows.mean(axis=0)
    var = rows.var(axis=0)
    if n_speakers == 1 and (var < 1e-24).all():
        # one speaker, no variation: combined feature is all zeros and the
        # softmax below still yields probability one
        return np.zeros((n_windows, 1)), np.array([0.0, 1.0, 0.0]), np.zeros(3)
    if len(rows) < 2 or (var < 1e-24).all():
        raise ValueError("degenerate session: dominance features carry no variance")
    dead = var < 1e-24
    std = np.sqrt(np.where(dead, 1.0, var))
    z = (rows - mean) / std
    z[:, dead] = 0.0

    cov = (z.T @ z) / len(z)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    axis = eigvecs[:, order[0]]
    if axis[1] < 0 or (axis[1] == 0 and axis[0] < 0):
        axis = -axis
    return (z @ axis).reshape(n_windows, n_speakers), axis, eigvals


def dominance_scores(comb: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (the speakers of a window), max-subtracted
    so very large values cannot overflow."""
    p = np.asarray(comb, dtype=np.float64)
    e = np.exp(p - p.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dominance_report(
    hyp: DiarizationHypothesis, energies: np.ndarray, segment_len_sec: float, session_duration_sec: float
) -> DominanceReport:
    """End-to-end: features, combination, and softmax scores per window."""
    speakers, cues = extract_features(hyp, energies, segment_len_sec, session_duration_sec)
    comb, axis, eigvals = normalize_and_combine(cues)
    return DominanceReport(
        speakers=speakers,
        turns=cues[..., 0],
        spts=cues[..., 1],
        spens=cues[..., 2],
        comb=comb,
        ds=dominance_scores(comb),
        pca_axis=axis,
        eigenvalues=eigvals,
    )
