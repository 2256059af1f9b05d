import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from diarkit import wpe


def tone(freq, n=4096, rate=8000):
    return np.sin(2 * np.pi * freq * np.arange(n) / rate)


def _tap_order_analyze(v, filt):
    """Reference ``_analyze``: the cyclic extension gathered by index, then
    the taps summed in order, one strided pass per tap, starting from zeros.
    A 1-row node is numpy's dot of its one window, as in ``_analyze``."""
    m, taps = len(v) // 2, len(filt)
    ext = v[np.arange(len(v) + taps - 1) % len(v)]
    if m == 1:
        return np.array([ext[:taps] @ filt])
    acc = np.zeros(m)
    for j in range(taps):
        acc = acc + ext[j : j + 2 * m : 2] * filt[j]
    return acc


# --------------------------------------------- the inverse transform (oracle)


def _synthesize(lo, hi):
    """Adjoint of ``_analyze`` for the low/high pair."""
    n = 2 * len(lo)
    out = np.zeros(n)
    for coeffs, filt in ((lo, wpe.DEC_LO), (hi, wpe.DEC_HI)):
        idx = (2 * np.arange(len(coeffs))[:, None] + np.arange(len(filt))[None, :]) % n
        np.add.at(out, idx, coeffs[:, None] * filt[None, :])
    return out


def _gray_inverse(p):
    # position in frequency order of the Paley-order node p
    k = 0
    while p:
        k ^= p
        p >>= 1
    return k


def inverse_wpt(tree):
    """The signal ``tree`` was built from, with the transform's zero padding
    up to a multiple of 2**depth samples."""
    nodes = [tree.leaves[_gray_inverse(p)] for p in range(tree.n_leaves)]
    for _ in range(tree.depth):
        nodes = [_synthesize(nodes[i], nodes[i + 1]) for i in range(0, len(nodes), 2)]
    return nodes[0]


def total_energy(tree):
    return float(sum(np.dot(leaf, leaf) for leaf in tree.leaves))


def test_filter_bank_orthonormality():
    h = wpe.SYM6_SCALING
    assert abs(h.sum() - np.sqrt(2)) < 1e-12
    assert abs((h**2).sum() - 1.0) < 1e-12
    for m in range(1, 6):
        assert abs(np.dot(h[: -2 * m], h[2 * m :])) < 1e-12
    lo, hi = wpe.DEC_LO, wpe.DEC_HI
    assert abs(np.dot(lo, hi)) < 1e-12
    for m in range(1, 6):
        assert abs(np.dot(lo[: -2 * m], hi[2 * m :])) < 1e-12
        assert abs(np.dot(lo[2 * m :], hi[: -2 * m])) < 1e-12


# Long nodes, odd lengths included, each far past the 768 rows at which
# OpenBLAS splits a matrix-vector product between two threads.
LONG_NODES = (32767, 32768, 32770, 32771, 98318, 98322, 98555)

_ANALYZE_IN_CHILD = """
import sys
import numpy as np
from diarkit import wpe
v = np.load(sys.argv[1])
lengths = [int(n) for n in sys.argv[3:]]
np.savez(sys.argv[2], **{f"{k}{n}": wpe._analyze(v[:n], f) for n in lengths for k, f in (("lo", wpe.DEC_LO), ("hi", wpe.DEC_HI))})
"""


def _long_node_signal():
    return np.random.default_rng(17).normal(size=max(LONG_NODES))


def _analyze_in_children(tmp_path, thread_counts):
    """``{threads: npz}`` of ``_analyze`` over ``LONG_NODES``, each run in a
    child at that OpenBLAS thread count."""
    np.save(tmp_path / "v.npy", _long_node_signal())
    src = os.path.dirname(os.path.dirname(wpe.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _ANALYZE_IN_CHILD, str(tmp_path / "v.npy"),
             str(tmp_path / f"analyze{threads}.npz"), *map(str, LONG_NODES)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath),
        )
        for threads in thread_counts
    }
    try:
        for threads, child in children.items():
            assert child.wait(timeout=120) == 0, f"child at {threads} threads failed"
    finally:
        for child in children.values():
            child.kill()
    return {threads: np.load(tmp_path / f"analyze{threads}.npz") for threads in children}


@pytest.mark.parametrize("filt", [wpe.DEC_LO, wpe.DEC_HI], ids=["lo", "hi"])
def test_analyze_bit_identical_to_gather(filt):
    rng = np.random.default_rng(7)
    for n in [*range(4, 131, 2), 4096, 5056, 5, 11, 13, 25, 4097]:
        v = rng.normal(size=n)
        out = wpe._analyze(v, filt)
        assert len(out) == n // 2
        assert out.tobytes() == _tap_order_analyze(v, filt).tobytes(), n
    # A node of 2 or 3 samples has one window, which numpy's dot filters.
    for n in (2, 3):
        v = rng.normal(size=n)
        window = np.resize(v, n + len(filt) - 1)[: len(filt)]
        assert wpe._analyze(v, filt).tobytes() == np.array([window @ filt]).tobytes(), n
    assert len(wpe._analyze(rng.normal(size=1), filt)) == 0
    v = _long_node_signal()
    for n in LONG_NODES:
        out = wpe._analyze(v[:n], filt)
        assert len(out) == n // 2
        assert out.tobytes() == _tap_order_analyze(v[:n], filt).tobytes(), n


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores to run OpenBLAS with two threads")
def test_analyze_independent_of_blas_threads(tmp_path):
    # No BLAS routine takes the strided windows, so numpy's own loop filters
    # them on one thread: at 1 and 2 OpenBLAS threads the coefficients are
    # the tap-order sums.
    runs = _analyze_in_children(tmp_path, ["1", "2"])
    v = _long_node_signal()
    for n in LONG_NODES:
        for name, filt in (("lo", wpe.DEC_LO), ("hi", wpe.DEC_HI)):
            reference = _tap_order_analyze(v[:n], filt).tobytes()
            for threads, run in runs.items():
                assert run[f"{name}{n}"].tobytes() == reference, (threads, name, n)


def test_segment_energy_working_memory_is_bounded():
    # A 60 s float32 segment at 8 kHz. The peak is 3.5 x 8 bytes per
    # sample: the float64 segment copy, two tree levels, and one cyclic
    # extension of a half-length node; no window is copied.
    rate = 8000
    channel = np.random.default_rng(9).normal(size=60 * rate).astype(np.float32)
    tracemalloc.start()
    try:
        wpe.segment_energy(channel, [(0.0, 60.0)], rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(channel) < 30.0, f"{peak / len(channel):.1f} bytes per sample"


def test_segment_energy_bit_identical_to_gather_tree(monkeypatch):
    rate = 8000
    rng = np.random.default_rng(8)
    audio = rng.normal(size=20000)
    lengths = np.concatenate([rng.integers(1, 64, size=10), rng.integers(65, 4000, size=40)])
    starts = rng.integers(0, len(audio) - lengths)
    segments = [(s / rate, (s + n) / rate) for s, n in zip(starts, lengths)]
    fast = wpe.segment_energy(audio, segments, rate)
    monkeypatch.setattr(wpe, "_analyze", _tap_order_analyze)
    assert fast.tobytes() == wpe.segment_energy(audio, segments, rate).tobytes()


def test_parseval_random_signal():
    x = np.random.default_rng(0).normal(size=4096)
    tree = wpe.wpt(x, 8000)
    energy = np.dot(x, x)
    assert abs(total_energy(tree) - energy) / energy < 1e-6


def test_round_trip_reconstruction():
    rng = np.random.default_rng(1)
    for n in (4096, 5000, 64):
        x = rng.normal(size=n)
        assert np.abs(inverse_wpt(wpe.wpt(x, 8000))[:n] - x).max() < 1e-8


def test_zero_signal_zero_coefficients():
    tree = wpe.wpt(np.zeros(512), 8000)
    assert total_energy(tree) == 0.0


def test_too_short_signal():
    with pytest.raises(ValueError, match="too short"):
        wpe.wpt(np.zeros(32), 8000)


def test_band_energy_tone_inside_band():
    tree = wpe.wpt(tone(1000), 8000)
    assert wpe.band_energy(tree, 50, 2000) / total_energy(tree) >= 0.90


def test_band_energy_tone_outside_band():
    tree = wpe.wpt(tone(3000), 8000)
    assert wpe.band_energy(tree, 50, 2000) / total_energy(tree) <= 0.10


def test_band_energy_full_band_is_parseval_sum():
    x = np.random.default_rng(2).normal(size=2048)
    tree = wpe.wpt(x, 8000)
    assert abs(wpe.band_energy(tree, 0, 4000) - total_energy(tree)) < 1e-9


def test_band_energy_monotone_in_band_width():
    x = np.random.default_rng(3).normal(size=2048)
    tree = wpe.wpt(x, 8000)
    inner = wpe.band_energy(tree, 500, 1500)
    outer = wpe.band_energy(tree, 250, 2500)
    assert 0 <= inner <= outer <= total_energy(tree) + 1e-12


def test_band_energy_invalid_band():
    tree = wpe.wpt(np.zeros(64), 8000)
    with pytest.raises(ValueError, match="band"):
        wpe.band_energy(tree, 2000, 100)


@pytest.mark.parametrize("leaf", [4, 16, 28])
def test_frequency_ordering_tone_hits_its_leaf(leaf):
    width = 8000 / 2 / 64
    center = (leaf + 0.5) * width
    tree = wpe.wpt(tone(center), 8000)
    energies = [float(np.dot(v, v)) for v in tree.leaves]
    assert int(np.argmax(energies)) == leaf


def test_segment_energy_silence_is_zero():
    audio = np.zeros(8000)
    out = wpe.segment_energy(audio, [(0.1, 0.4)], 8000)
    assert out[0] <= 1e-12


def test_segment_energy_additive_over_disjoint_segments():
    rng = np.random.default_rng(4)
    audio = rng.normal(size=16000)
    parts = wpe.segment_energy(audio, [(0.0, 0.5), (0.5, 1.0)], 8000)
    whole = wpe.segment_energy(audio, [(0.0, 1.0)], 8000)
    assert abs(parts.sum() - whole[0]) / whole[0] < 0.02


def test_segment_energy_quadratic_in_amplitude():
    rng = np.random.default_rng(5)
    audio = rng.normal(size=8000)
    e1 = wpe.segment_energy(audio, [(0.0, 1.0)], 8000)[0]
    e2 = wpe.segment_energy(2 * audio, [(0.0, 1.0)], 8000)[0]
    assert abs(e2 - 4 * e1) / (4 * e1) < 1e-9


def test_segment_energy_short_segment_padded():
    audio = np.random.default_rng(6).normal(size=8000)
    out = wpe.segment_energy(audio, [(0.0, 0.004)], 8000)  # 32 samples < 64
    assert np.isfinite(out[0]) and out[0] > 0


def test_segment_energy_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        wpe.segment_energy(np.zeros(800), [(0.0, 1.0)], 8000)


def test_segment_energy_clips_rttm_rounded_end():
    # 239,997 samples at 8 kHz end at 29.999625 s; an RTTM end of 30.000 s
    # passes them by 0.375 ms, within the rounding tolerance.
    audio = np.random.default_rng(9).normal(size=239_997)
    out = wpe.segment_energy(audio, [(10.0, 30.0)], 8000)
    clipped = wpe.band_energy(wpe.wpt(audio[80_000:], 8000))
    assert out.tobytes() == np.array([clipped]).tobytes()


def test_segment_energy_overshoot_beyond_rounding_raises():
    audio = np.zeros(239_997)
    with pytest.raises(ValueError, match="outside"):
        wpe.segment_energy(audio, [(10.0, len(audio) / 8000 + 0.003)], 8000)


def test_segment_energy_float32_channel_matches_float64_copy():
    # A float32 channel is read at its own width; each segment, the short
    # padded one included, is converted exactly, so energies are bit-identical.
    audio = np.random.default_rng(10).normal(0.0, 0.1, 24_000).astype(np.float32)
    segs = [(0.0, 0.004), (0.5, 1.25), (1.25, 3.0)]
    out32 = wpe.segment_energy(audio, segs, 8000)
    assert out32.tobytes() == wpe.segment_energy(audio.astype(np.float64), segs, 8000).tobytes()
