"""Frame-level features: MFCC, session CMVN, stream concatenation, splicing,
speech-activity masking, and a flat binary dump format.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dct

from .config import HOP_SEC, WINDOW_SEC, Config

FEATURE_MAGIC = b"FEA1"

# Mel energies are floored here before the log.
LOG_FLOOR = 1e-10

# The fixed front end (Davis & Mermelstein, 1980); 7 channels: 13 -> 91 -> 1001 dims.
PRE_EMPHASIS = 0.97
N_MELS = 26
N_COEFFS = 13
SPLICE_FRAMES = 5


@dataclass
class FeatureMatrix:
    """frames x dim matrix on the ``config.HOP_SEC`` / ``config.WINDOW_SEC`` frame grid.

    ``speech_mask`` marks speech frames (None means unknown/all speech).
    ``frame_index`` maps rows back to original frame indices after
    speech-only filtering; None means the identity map.
    """

    data: np.ndarray
    speech_mask: np.ndarray | None = None
    frame_index: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] == 0:
            raise ValueError("feature matrix must be 2-D with at least one frame")
        if not np.isfinite(self.data).all():
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def mel_from_hz(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, rate: int) -> np.ndarray:
    """Triangular filters on the mel scale from 0 Hz to the Nyquist
    frequency, evaluated at rfft bin centers."""
    edges = hz_from_mel(np.linspace(0.0, mel_from_hz(rate / 2.0), n_mels + 2))
    bins_hz = np.arange(n_fft // 2 + 1) * rate / n_fft
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]  # one row per filter
    return np.clip(np.minimum((bins_hz - lo) / (ctr - lo), (hi - bins_hz) / (hi - ctr)), 0.0, None)


def mfcc(signal: np.ndarray, cfg: Config) -> FeatureMatrix:
    """MFCCs (c0 included) of a signal at ``cfg.sample_rate``: pre-emphasis,
    Hamming window, power spectrum over the next power of two at or above the
    window, mel filterbank, floored log, orthonormal DCT-II.
    """
    rate = cfg.sample_rate
    signal = np.asarray(signal, dtype=np.float64)
    win = int(round(WINDOW_SEC * rate))
    hop = int(round(HOP_SEC * rate))
    n_fft = 1 << (win - 1).bit_length()
    if len(signal) < win:
        raise ValueError(f"signal shorter than one window ({len(signal)} < {win} samples)")
    emphasized = np.concatenate([signal[:1], signal[1:] - PRE_EMPHASIS * signal[:-1]])
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, win)[::hop] * np.hamming(win)
    spectrum = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    fb = mel_filterbank(N_MELS, n_fft, rate)
    logmel = np.log(np.maximum(spectrum @ fb.T, LOG_FLOOR))
    coeffs = dct(logmel, type=2, norm="ortho", axis=1)[:, :N_COEFFS]
    return FeatureMatrix(coeffs)


def cmvn(f: FeatureMatrix, mask: np.ndarray) -> FeatureMatrix:
    """Zero-mean unit-variance per dimension, statistics over speech frames.

    Dimensions with vanishing variance are zeroed (and reported) instead of
    amplifying noise.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() < 2:
        raise ValueError("CMVN needs at least 2 speech frames")
    sel = f.data[mask]
    mean = sel.mean(axis=0)
    var = sel.var(axis=0)
    dead = var < 1e-12
    if dead.any():
        warnings.warn(f"CMVN: {int(dead.sum())} constant dimension(s) zeroed")
    std = np.sqrt(np.where(dead, 1.0, var))
    out = (f.data - mean) / std
    out[:, dead] = 0.0
    return replace(f, data=out)


def concat_streams(per_channel: list[FeatureMatrix]) -> FeatureMatrix:
    """Frame-wise concatenation [ch0 | ch1 | ...]; channel order is the
    input file order."""
    first = per_channel[0]
    for i, f in enumerate(per_channel[1:], start=1):
        if f.n_frames != first.n_frames:
            raise ValueError(f"channel {i} has {f.n_frames} frames, expected {first.n_frames}")
    return replace(first, data=np.hstack([f.data for f in per_channel]))


def splice(f: FeatureMatrix, context: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Frames ``rows`` of ``f`` (default: every frame), each stacked with
    ``context`` frames on either side, replicating the edge frame where
    context is missing. Only the rows asked for are built: one float64 row
    of 7 spliced 13-MFCC channels is 8 KB."""
    n = f.n_frames
    centers = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    idx = np.clip(centers[:, None] + np.arange(-context, context + 1), 0, n - 1)
    return f.data[idx].reshape(len(centers), idx.shape[1] * f.dim)


def speech_frame_mask(f: FeatureMatrix, sad_segments: list[tuple[float, float]]) -> np.ndarray:
    """A frame is speech when its center time lies inside any segment."""
    centers = np.arange(f.n_frames) * HOP_SEC + WINDOW_SEC / 2.0
    mask = np.zeros(f.n_frames, dtype=bool)
    for start, end in sad_segments:
        mask |= (centers >= start) & (centers <= end)
    return mask


def feature_bytes(f: FeatureMatrix) -> bytes:
    """Flat binary dump: 16-byte header (magic, frames, dim, hop in
    microseconds), then row-major little-endian float32."""
    header = struct.pack("<4sIII", FEATURE_MAGIC, f.n_frames, f.dim, int(round(HOP_SEC * 1e6)))
    return header + f.data.astype("<f4").tobytes(order="C")


def read_features(path: str) -> tuple[FeatureMatrix, float]:
    """Inverse of ``feature_bytes``: the matrix and the hop in seconds."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated feature header")
        magic, frames, dim, hop_us = struct.unpack("<4sIII", header)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        body = fh.read()
    if len(body) != 4 * frames * dim:
        raise ValueError(f"{path}: {len(body)} bytes of data, the header declares {4 * frames * dim}")
    data = np.frombuffer(body, dtype="<f4").reshape(frames, dim)
    return FeatureMatrix(data.astype(np.float64)), hop_us / 1e6
