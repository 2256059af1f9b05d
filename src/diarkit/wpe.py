"""Wavelet-packet speaker energy.

Full packet tree over a 12-tap Symlet-6 orthonormal filter bank. The signal
is zero-padded to a multiple of 2**depth and the tree uses periodized
convolutions, so the transform is exactly orthonormal: coefficient energy
equals sample energy and the inverse is the adjoint. Only the forward
transform is needed here; the inverse lives in the tests, as the oracle of
the round-trip check.

Leaves are kept in natural frequency order. The raw low/high recursion
produces Paley order, where every descent through a high-pass band mirrors
the spectrum; the binary-reflected Gray code undoes that, and selecting
"all leaves overlapping [50, 2000] Hz" means what it says.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segments import ROUNDING_TOL

# Symlet-6 scaling coefficients (sum = sqrt(2), shift-2 orthonormal).
SYM6_SCALING = np.array(
    [
        0.015404109327027373,
        0.0034907120842174702,
        -0.11799011114819057,
        -0.048311742585633,
        0.4910559419267466,
        0.787641141030194,
        0.3379294217276218,
        -0.07263752278646252,
        -0.021060292512300564,
        0.04472490177066578,
        0.0017677118642428036,
        -0.007800708325034148,
    ]
)

DEC_LO = SYM6_SCALING[::-1].copy()
DEC_HI = SYM6_SCALING * np.power(-1.0, np.arange(len(SYM6_SCALING)))

DEFAULT_DEPTH = 6
BAND_HZ = (50.0, 2000.0)  # the speech band whose energy dominance reads


def _analyze(v: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Periodic correlation with ``filt``, downsampled by 2: returns
    ``len(v) // 2`` coefficients.

    The node is extended cyclically by ``len(filt) - 1`` samples at indices
    modulo ``len(v)`` (a node shorter than the filter wraps more than once;
    a long node is copied once), and window k is ``ext[2k : 2k + len(filt)]``:
    a strided view of ext's buffer, which no BLAS routine takes, so numpy's
    own product loop filters it without a copy, on one thread, summing the
    taps in order. A 1-row node goes through numpy's dot.
    """
    taps = len(filt)
    ext = np.concatenate([v, v[np.arange(taps - 1) % len(v)]])
    # sliding_window_view takes 20 us a call, about a third of the time on
    # the many short nodes of a deep tree.
    windows = np.ndarray((len(v) // 2, taps), ext.dtype, ext, strides=(2 * ext.itemsize, ext.itemsize))
    return np.matmul(windows, filt)


def _gray(k: int) -> int:
    return k ^ (k >> 1)


@dataclass
class WptTree:
    """Full wavelet-packet decomposition of one signal."""

    depth: int
    leaves: list[np.ndarray]  # frequency order, low band first
    sample_rate: int

    @property
    def n_leaves(self) -> int:
        return 1 << self.depth


def wpt(signal: np.ndarray, sample_rate: int, depth: int = DEFAULT_DEPTH) -> WptTree:
    """Depth-``depth`` full packet tree; requires at least 2**depth samples."""
    signal = np.asarray(signal, dtype=np.float64)
    block = 1 << depth
    if len(signal) < block:
        raise ValueError(f"signal too short for depth {depth}: {len(signal)} < {block} samples")
    pad = (-len(signal)) % block
    if pad:
        signal = np.concatenate([signal, np.zeros(pad)])
    nodes = [signal]
    for _ in range(depth):
        nodes = [child for v in nodes for child in (_analyze(v, DEC_LO), _analyze(v, DEC_HI))]
    leaves = [nodes[_gray(k)] for k in range(block)]
    return WptTree(depth=depth, leaves=leaves, sample_rate=sample_rate)


def band_energy(tree: WptTree, f_lo: float = BAND_HZ[0], f_hi: float = BAND_HZ[1]) -> float:
    """Sum of squared coefficients over every leaf whose nominal band
    overlaps [f_lo, f_hi]."""
    nyquist = tree.sample_rate / 2.0
    if not (0 <= f_lo < f_hi <= nyquist):
        raise ValueError(f"invalid band [{f_lo}, {f_hi}] for Nyquist {nyquist}")
    width = nyquist / tree.n_leaves
    total = 0.0
    for k in range(tree.n_leaves):
        if (k + 1) * width > f_lo and k * width < f_hi:
            total += float(np.dot(tree.leaves[k], tree.leaves[k]))
    return total


def segment_energy(channel: np.ndarray, segments: list[tuple], sample_rate: int) -> np.ndarray:
    """``BAND_HZ`` wavelet-packet energy of each ``(start, end, ...)``
    segment of the reference channel; short segments are zero-padded up to
    the minimum transform length. An end past the audio by at most
    ``ROUNDING_TOL`` (RTTM's 3-decimal rounding) is clipped to the last
    sample; a larger overshoot raises ``ValueError``. The channel is read
    at its own dtype; ``wpt`` converts each segment to float64."""
    block = 1 << DEFAULT_DEPTH
    out = np.empty(len(segments))
    for i, seg in enumerate(segments):
        start, end = seg[0], seg[1]
        i0, i1 = int(round(start * sample_rate)), int(round(end * sample_rate))
        if i1 > len(channel) and end - len(channel) / sample_rate <= ROUNDING_TOL:
            i1 = len(channel)
        if i0 < 0 or i1 > len(channel) or i1 <= i0:
            raise ValueError(f"segment [{start}, {end}] outside audio range")
        samples = channel[i0:i1]
        if len(samples) < block:
            samples = np.concatenate([samples, np.zeros(block - len(samples))])
        out[i] = band_energy(wpt(samples, sample_rate))
    return out
