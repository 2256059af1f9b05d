import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit import cli, config, features
from diarkit.audio_io import MultiStreamAudio
from diarkit.config import Config
from diarkit.features import FeatureMatrix, cmvn, concat_streams, mfcc, splice
from operating_points import session


def reference_mfcc(signal, rate=8000):
    """Independent MFCC oracle: plain loops, no shared code with the
    implementation under test. Same contract: pre-emphasis 0.97 (first
    sample kept), Hamming window, |rfft|^2 on 256 points, 26 triangular
    mel filters over 0..rate/2 evaluated at bin centers, floored log,
    orthonormal DCT-II, coefficients c0..c12.
    """
    win, hop, nfft, nmel, ncep = 200, 80, 256, 26, 13
    x = [float(v) for v in signal]
    emph = [x[0]] + [x[i] - 0.97 * x[i - 1] for i in range(1, len(x))]
    nframes = (len(x) - win) // hop + 1
    ham = [0.54 - 0.46 * math.cos(2 * math.pi * i / (win - 1)) for i in range(win)]

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [imel(mel(0.0) + (mel(rate / 2) - mel(0.0)) * k / (nmel + 1)) for k in range(nmel + 2)]
    out = []
    for fi in range(nframes):
        frame = [emph[fi * hop + i] * ham[i] for i in range(win)]
        power = []
        for k in range(nfft // 2 + 1):
            re = sum(frame[i] * math.cos(-2 * math.pi * k * i / nfft) for i in range(win))
            im = sum(frame[i] * math.sin(-2 * math.pi * k * i / nfft) for i in range(win))
            power.append(re * re + im * im)
        logmel = []
        for m in range(nmel):
            lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
            acc = 0.0
            for k in range(nfft // 2 + 1):
                f = k * rate / nfft
                w = min((f - lo) / (ctr - lo), (hi - f) / (hi - ctr))
                acc += max(0.0, w) * power[k]
            logmel.append(math.log(max(acc, 1e-10)))
        coeffs = []
        for c in range(ncep):
            s = sum(logmel[n] * math.cos(math.pi * c * (2 * n + 1) / (2 * nmel)) for n in range(nmel))
            scale = math.sqrt(1.0 / nmel) if c == 0 else math.sqrt(2.0 / nmel)
            coeffs.append(scale * s)
        out.append(coeffs)
    return np.array(out)


def test_mfcc_zero_signal_single_frame():
    out = mfcc(np.zeros(200), Config())
    assert out.data.shape == (1, 13)
    assert abs(out.data[0, 0]) > 1.0  # c0 carries the log floor
    np.testing.assert_allclose(out.data[0, 1:], 0.0, atol=1e-12)


def test_mfcc_frame_count_one_second():
    out = mfcc(np.random.default_rng(0).normal(size=8000), Config())
    assert out.n_frames == 98


def test_mfcc_matches_independent_oracle():
    rate = 8000
    t = np.arange(rate) / rate
    signal = np.sin(2 * np.pi * 1000 * t)
    ours = mfcc(signal, Config(sample_rate=rate)).data
    theirs = reference_mfcc(signal[: 200 + 80 * 12])  # first 13 frames are plenty
    np.testing.assert_allclose(ours[:13], theirs, atol=1e-6)
    np.testing.assert_allclose(ours[10], theirs[10], atol=1e-6)


def test_mfcc_every_window_sample_counts():
    # At 16 kHz the 25 ms window is 400 samples; the tail of the first
    # window must reach the first frame, not be cut off by the FFT size.
    cfg = Config(sample_rate=16000)
    x = np.random.default_rng(5).normal(size=16000)
    cut = x.copy()
    cut[300:400] = 0.0
    assert not np.array_equal(mfcc(x, cfg).data[0], mfcc(cut, cfg).data[0])


# Windows of 200, 276, 400, 551 and 1102 samples: all but the first are
# longer than 256 points.
FFT_SIZES = [
    ({"sample_rate": 8000}, 256), ({"sample_rate": 11025}, 512), ({"sample_rate": 16000}, 512),
    ({"sample_rate": 22050}, 1024), ({"sample_rate": 44100}, 2048),
]


@pytest.mark.parametrize(
    "settings, expected", FFT_SIZES, ids=[",".join(f"{k}={v}" for k, v in s.items()) for s, _ in FFT_SIZES]
)
def test_mfcc_fft_size_covers_the_window(monkeypatch, settings, expected):
    seen = []

    def spy(n_mels, n_fft, rate):
        seen.append(n_fft)
        return real(n_mels, n_fft, rate)

    real = features.mel_filterbank
    monkeypatch.setattr(features, "mel_filterbank", spy)
    cfg = Config(**settings)
    win = round(config.WINDOW_SEC * cfg.sample_rate)
    assert mfcc(np.random.default_rng(0).normal(size=cfg.sample_rate // 10), cfg).n_frames > 0
    assert seen == [expected]
    assert win <= expected < 2 * win and expected & (expected - 1) == 0


def test_mfcc_too_short_signal():
    with pytest.raises(ValueError, match="shorter"):
        mfcc(np.zeros(150), Config())


def test_cmvn_zero_mean_unit_variance():
    rng = np.random.default_rng(1)
    f = FeatureMatrix(rng.normal(3.0, 5.0, size=(400, 13)))
    out = cmvn(f, np.ones(400, dtype=bool))
    assert np.abs(out.data.mean(axis=0)).max() < 1e-10
    assert np.abs(out.data.var(axis=0) - 1).max() < 1e-8


def test_cmvn_respects_mask():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(100, 4))
    data[50:] += 100.0  # non-speech junk must not bias the statistics
    mask = np.zeros(100, dtype=bool)
    mask[:50] = True
    out = cmvn(FeatureMatrix(data), mask)
    assert np.abs(out.data[:50].mean(axis=0)).max() < 1e-10


def test_cmvn_constant_dimension_zeroed_with_warning():
    data = np.random.default_rng(3).normal(size=(50, 3))
    data[:, 1] = 4.2
    with pytest.warns(UserWarning, match="constant"):
        out = cmvn(FeatureMatrix(data), np.ones(50, dtype=bool))
    assert np.all(out.data[:, 1] == 0.0)


def test_cmvn_idempotent():
    f = FeatureMatrix(np.random.default_rng(4).normal(2, 3, size=(200, 5)))
    everything = np.ones(200, dtype=bool)
    once = cmvn(f, everything)
    twice = cmvn(once, everything)
    np.testing.assert_allclose(twice.data, once.data, atol=1e-10)


@given(
    scale=st.floats(min_value=0.1, max_value=50.0),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=25, deadline=None)
def test_cmvn_affine_invariance(scale, shift):
    data = np.random.default_rng(5).normal(size=(64, 3))
    everything = np.ones(64, dtype=bool)
    base = cmvn(FeatureMatrix(data), everything).data
    scaled = cmvn(FeatureMatrix(scale * data + shift), everything).data
    np.testing.assert_allclose(scaled, base, atol=1e-8)


def test_cmvn_needs_two_speech_frames():
    f = FeatureMatrix(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ValueError):
        cmvn(f, np.array([True] + [False] * 9))


def test_concat_streams_layout():
    rng = np.random.default_rng(6)
    chans = [FeatureMatrix(rng.normal(size=(20, 13))) for _ in range(7)]
    out = concat_streams(chans)
    assert out.dim == 91
    np.testing.assert_array_equal(out.data[:, :13], chans[0].data)
    np.testing.assert_array_equal(out.data[:, 13:26], chans[1].data)


def test_concat_streams_single_channel_identity():
    f = FeatureMatrix(np.random.default_rng(7).normal(size=(10, 13)))
    np.testing.assert_array_equal(concat_streams([f]).data, f.data)


def test_concat_streams_frame_mismatch():
    a = FeatureMatrix(np.zeros((10, 13)))
    b = FeatureMatrix(np.zeros((11, 13)))
    with pytest.raises(ValueError, match="frames"):
        concat_streams([a, b])


def _materialized_splice(data, context):
    """Reference splice: every frame's spliced row, built in full."""
    n = len(data)
    idx = np.clip(np.arange(n)[:, None] + np.arange(-context, context + 1), 0, n - 1)
    return data[idx].reshape(n, -1)


def test_splice_dimensions():
    f = FeatureMatrix(np.random.default_rng(8).normal(size=(50, 91)))
    assert splice(f, 5).shape == (50, 1001)
    assert splice(f, 5, np.arange(2, 20)).shape == (18, 1001)
    assert splice(f, 5, np.array([], dtype=np.intp)).shape == (0, 1001)


def test_splice_single_frame_replicates():
    f = FeatureMatrix(np.arange(4.0).reshape(1, 4))
    out = splice(f, 5)
    np.testing.assert_array_equal(out.reshape(11, 4), np.tile(f.data, (11, 1)))


def test_splice_interior_frame_is_exact_context():
    rng = np.random.default_rng(9)
    f = FeatureMatrix(rng.normal(size=(30, 3)))
    out = splice(f, 5)
    t = 12
    expected = np.concatenate([f.data[t + off] for off in range(-5, 6)])
    np.testing.assert_array_equal(out[t], expected)


def test_splice_center_block_projection():
    f = FeatureMatrix(np.random.default_rng(10).normal(size=(40, 6)))
    out = splice(f, 5)
    np.testing.assert_array_equal(out[:, 5 * 6 : 6 * 6], f.data)


def test_splice_rows_equal_materialized_splice_bits():
    rng = np.random.default_rng(13)
    f = FeatureMatrix(rng.normal(size=(120, 7)))
    row_sets = [
        np.flatnonzero(rng.random(120) < 0.6),  # speech rows
        rng.permutation(120)[:40],  # shuffled
        np.array([3, 3, 0, 119]),  # repeats and both ends
        np.arange(5),  # the first 5 frames: left context replicated
        np.arange(115, 120),  # the last 5 frames: right context replicated
        np.arange(0, 120, 7),  # strided
        np.arange(119, -1, -4),  # strided backwards
    ]
    # Context 0 stages mfcc91: the plain row gather.
    assert _materialized_splice(f.data, 0).tobytes() == f.data.tobytes()
    for context in (5, 0):
        full = _materialized_splice(f.data, context)
        assert splice(f, context).tobytes() == full.tobytes()
        for rows in row_sets:
            assert splice(f, context, rows).tobytes() == full[rows].tobytes(), (context, rows)


def _noise_audio(seconds=3.0, rate=8000, seed=11):
    rng = np.random.default_rng(seed)
    return MultiStreamAudio([rng.normal(0.0, 0.1, int(seconds * rate)) for _ in range(2)], rate)


def _session_features(audio, sad, mode):
    cfg = Config(feature_kind="mfcc91", mode=mode)
    feats, _ = cli.extract_session_features(audio, sad, cfg)
    return feats


def test_sad_full_coverage_keeps_every_frame():
    f = FeatureMatrix(np.random.default_rng(11).normal(size=(100, 2)))
    assert features.speech_frame_mask(f, [(0.0, 10.0)]).all()
    audio = _noise_audio()
    oracle = _session_features(audio, [(0.0, 10.0)], "oracle-sad")
    no_sad = _session_features(audio, [(0.0, 10.0)], "no-sad")
    assert oracle.n_frames == no_sad.n_frames
    np.testing.assert_array_equal(oracle.frame_index, np.arange(no_sad.n_frames))
    np.testing.assert_array_equal(oracle.data, no_sad.data)


def test_speech_frame_mask_center_rule_count():
    f = FeatureMatrix(np.random.default_rng(12).normal(size=(500, 2)))
    assert abs(features.speech_frame_mask(f, [(1.0, 2.0)]).sum() - 100) <= 1


def test_oracle_sad_rows_are_no_sad_rows_at_frame_index():
    audio = _noise_audio()
    sad = [(0.5, 1.0), (2.0, 2.5)]
    oracle = _session_features(audio, sad, "oracle-sad")
    no_sad = _session_features(audio, sad, "no-sad")
    np.testing.assert_array_equal(oracle.frame_index, np.flatnonzero(no_sad.speech_mask))
    np.testing.assert_array_equal(oracle.data, no_sad.data[oracle.frame_index])
    assert oracle.speech_mask is None
    # every kept row's centre time lies inside a SAD segment
    centres = oracle.frame_index * config.HOP_SEC + config.WINDOW_SEC / 2.0
    assert all(any(s <= t <= e for s, e in sad) for t in centres)


def test_session_features_refuse_audio_at_another_rate():
    with pytest.raises(ValueError, match="16000 Hz"):
        cli.extract_session_features(_noise_audio(rate=16000), [(0.0, 3.0)], Config(feature_kind="mfcc91"))


def test_oracle_sad_empty_selection_refused():
    with pytest.raises(ValueError, match="speech frames"):
        _session_features(_noise_audio(), [(100.0, 101.0)], "oracle-sad")


def test_oracle_sad_without_segments_refused():
    with pytest.raises(ValueError, match="oracle-sad mode requires SAD segments"):
        _session_features(_noise_audio(), None, "oracle-sad")


def test_feature_dump_round_trip(tmp_path):
    f = FeatureMatrix(np.random.default_rng(15).normal(size=(37, 21)).astype(np.float32).astype(np.float64))
    path = tmp_path / "f.bin"
    path.write_bytes(features.feature_bytes(f))
    back, hop_sec = features.read_features(str(path))
    assert back.data.shape == (37, 21)
    assert abs(hop_sec - 0.010) < 1e-9
    np.testing.assert_allclose(back.data, f.data, atol=1e-6)


@pytest.mark.parametrize("cut", [-4, -3, 4], ids=["short-value", "short-byte", "padded"])
def test_read_features_refuses_wrong_length(tmp_path, cut):
    data = features.feature_bytes(FeatureMatrix(np.ones((5, 3))))
    path = tmp_path / "f.bin"
    path.write_bytes(data[:cut] if cut < 0 else data + b"\x00" * cut)
    with pytest.raises(ValueError, match=r"f\.bin: \d+ bytes of data, the header declares 60"):
        features.read_features(str(path))


def test_pipeline_deterministic():
    signal = np.random.default_rng(16).normal(size=16000)
    a = mfcc(signal, Config()).data
    b = mfcc(signal.copy(), Config()).data
    assert np.array_equal(a, b)


def test_session_feature_stack_peak_memory():
    # Criterion 1's session, first 30 s, as the acceptance-8k benchmark
    # runs it: 7 channels, bottleneck features, oracle SAD. Only the speech
    # rows are spliced, so the stack's traced peak is one speech-rows x 1001
    # float64 matrix plus the four mini-batch buffers of a training step
    # (1.53x at 2669 rows).
    audio, _, sad = session(30.0)
    cfg = Config(seed=3)
    tracemalloc.start()
    try:
        feats, _ = cli.extract_session_features(audio, sad, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spliced_bytes = feats.n_frames * 1001 * 8
    assert peak <= 1.6 * spliced_bytes, f"peak {peak / spliced_bytes:.2f}x one spliced matrix"
