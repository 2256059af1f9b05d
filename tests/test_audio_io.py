import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from diarkit import audio_io
from diarkit.audio_io import SessionScript, VoiceSpec, demo_script, synth_session
from diarkit.segments import DiarizationHypothesis, rttm_format


def sine(freq, rate, dur):
    t = np.arange(int(rate * dur)) / rate
    return np.sin(2 * np.pi * freq * t)


def test_resample_identity_passthrough():
    # At equal rates the channel comes back as it is: no copy, no upcast.
    for x in (np.linspace(-1, 1, 8000), np.linspace(-1, 1, 8000, dtype=np.float32)):
        assert audio_io.resample(x, 8000, 8000) is x


def test_resample_upcasts_a_real_resample():
    x = sine(440, 16000, 0.5)
    y32 = audio_io.resample(x.astype(np.float32), 16000, 8000)
    assert y32.dtype == np.float64
    assert y32.tobytes() == audio_io.resample(x.astype(np.float32).astype(np.float64), 16000, 8000).tobytes()


def tone_level_db(freq, rate_in, rate_out):
    """RMS level of a unit sine after resampling, in dB re its own level,
    skipping the filter edges."""
    y = audio_io.resample(sine(freq, rate_in, 1.0), rate_in, rate_out)
    return 20 * np.log10(np.sqrt(2 * np.mean(y[200:-200] ** 2)))


def test_resample_sine_matches_analytic():
    # oracle: the same tone generated directly at the target rate
    x = sine(1000, 16000, 1.0)
    y = audio_io.resample(x, 16000, 8000)
    ref = sine(1000, 8000, 1.0)
    n = min(len(y), len(ref))
    # spectral peak within 1 Hz
    spec = np.abs(np.fft.rfft(y[:n] * np.hanning(n)))
    peak_hz = np.argmax(spec) * 8000 / n
    assert abs(peak_hz - 1000.0) < 1.0
    # amplitude within 1% (skip filter edges)
    core = slice(100, n - 100)
    amp = np.sqrt(2 * np.mean(y[core] ** 2))
    assert abs(amp - 1.0) < 0.01
    ref_amp = np.sqrt(2 * np.mean(ref[core] ** 2))
    assert abs(amp - ref_amp) < 0.01


def test_resample_rejects_alias():
    # 6 kHz lies above the 4 kHz Nyquist of the output
    assert tone_level_db(6000, 16000, 8000) <= -80.0


def test_resample_upsampling_keeps_amplitude():
    assert abs(10 ** (tone_level_db(3000, 8000, 16000) / 20) - 1.0) < 0.01


def test_resample_preserves_duration():
    x = np.random.default_rng(0).normal(size=44100 + 37)
    for rate_in, rate_out in [(16000, 8000), (44100, 8000), (48000, 8000), (22050, 8000), (8000, 16000)]:
        y = audio_io.resample(x, rate_in, rate_out)
        assert len(y) == len(x) * rate_out // rate_in, (rate_in, rate_out)


@pytest.mark.parametrize(
    "rate_in, rate_out",
    [(16000, 8000), (8000, 16000), (44100, 8000), (48000, 8000), (11025, 8000), (22050, 16000), (8000, 11025)],
)
def test_resample_matches_scipy_resample_poly_bytes(rate_in, rate_out):
    # Oracle: scipy's polyphase resampler with the same Kaiser-windowed sinc.
    # Lengths 1 and 5 leave fewer outputs than phases, the others are not
    # multiples of the decimation factor, and the 9 s signal spans several
    # runs of the filter loop.
    from scipy.signal import firwin, resample_poly

    g = math.gcd(rate_in, rate_out)
    up, down = rate_out // g, rate_in // g
    taps = firwin(64 * up + 1, 1 / max(up, down), window=("kaiser", 8.0))
    rng = np.random.default_rng(rate_in + rate_out)
    for n in (1, 5, 300, 2 * rate_in + 7, 9 * rate_in + 3):
        for dtype in (np.float32, np.float64):
            x = rng.normal(size=n).astype(dtype)
            want = resample_poly(x.astype(np.float64), up, down, window=taps)[: n * rate_out // rate_in]
            got = audio_io.resample(x, rate_in, rate_out)
            assert got.dtype == np.float64 and got.shape == want.shape, (n, dtype)
            assert got.tobytes() == want.tobytes(), (n, dtype)


def test_import_defers_slow_scipy_modules(tmp_path):
    # Set-up code imports audio_io for synthesis and WAV I/O only; these two
    # modules cost about a second and are loaded where they are first used.
    # Resampling, by itself or while loading a 16 kHz session, needs neither
    # of them: scipy.signal is never loaded.
    path = tmp_path / "16k.wav"
    wavfile.write(path, 16000, sine(440, 16000, 0.5).astype(np.float32))
    code = (
        "import sys, diarkit.audio_io as audio_io\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))\n"
        "import numpy as np\n"
        "audio_io.resample(np.linspace(-1, 1, 16000), 16000, 8000)\n"
        f"audio_io.load_session([{str(path)!r}], target_rate=8000)\n"
        "print('scipy.signal' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "False"]


def test_load_session_int16_scaling(tmp_path):
    rate = 8000
    x = (0.5 * sine(440, rate, 0.5) * 32767).astype(np.int16)
    path = tmp_path / "a.wav"
    wavfile.write(path, rate, x)
    audio = audio_io.load_session([str(path)], target_rate=rate)
    assert audio.channel_count == 1
    assert audio.channels[0].dtype == np.float32
    assert np.array_equal(audio.channels[0].astype(np.float64), x.astype(np.float64) / 32768.0)


def test_load_session_multichannel_split(tmp_path):
    rate = 8000
    data = np.stack([sine(300, rate, 0.2), sine(600, rate, 0.2)], axis=1).astype(np.float32)
    path = tmp_path / "multi.wav"
    wavfile.write(path, rate, data)
    audio = audio_io.load_session([str(path)], target_rate=rate)
    assert audio.channel_count == 2
    assert np.array_equal(audio.channels[1], data[:, 1])


@pytest.mark.parametrize(
    "stored, loaded, scale",
    [(np.float32, np.float32, 1.0), (np.int16, np.float32, 32768.0),
     (np.int32, np.float64, 2147483648.0), (np.float64, np.float64, 1.0)],
    ids=["float32", "int16", "int32", "float64"],
)  # fmt: skip
def test_load_session_keeps_stored_width_exactly(tmp_path, stored, loaded, scale):
    # Each format loads at the narrowest float type that holds its values
    # exactly: the int16 file holds all 65536 values.
    rng = np.random.default_rng(4)
    if stored == np.int16:
        data = np.arange(-32768, 32768).astype(stored)
    elif stored == np.int32:
        data = np.concatenate([[-(2**31), 2**31 - 1], rng.integers(-(2**31), 2**31, 4000)]).astype(stored)
    else:
        data = rng.uniform(-1, 1, 4000).astype(stored)
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, data)
    (channel,) = audio_io.load_session([str(path)], target_rate=8000).channels
    assert channel.dtype == loaded
    assert np.array_equal(channel.astype(np.float64), data.astype(np.float64) / scale)


def test_load_session_resamples_parallel_streams(tmp_path):
    rate_in, rate_out = 44100, 8000
    paths = []
    for c in range(3):
        x = (0.3 * sine(300 + 100 * c, rate_in, 1.5)).astype(np.float32)
        p = tmp_path / f"ch{c}.wav"
        wavfile.write(p, rate_in, x)
        paths.append(str(p))
    audio = audio_io.load_session(paths, target_rate=rate_out)
    assert audio.channel_count == 3
    assert audio.sample_rate == rate_out
    assert len({len(ch) for ch in audio.channels}) == 1
    assert abs(audio.duration_sec - 1.5) < audio_io.CHANNEL_LENGTH_TOLERANCE_SEC


def test_load_session_duration_mismatch_names_file(tmp_path):
    rate = 8000
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    wavfile.write(a, rate, sine(200, rate, 1.0).astype(np.float32))
    wavfile.write(b, rate, sine(200, rate, 1.2).astype(np.float32))
    with pytest.raises(ValueError, match="b.wav"):
        audio_io.load_session([str(a), str(b)], target_rate=8000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_session_rejects_non_finite_samples(tmp_path, bad):
    path = tmp_path / "bad.wav"
    samples = sine(200, 8000, 0.3)
    samples[100] = bad
    wavfile.write(path, 8000, samples.astype(np.float32))
    with pytest.raises(ValueError, match="non-finite samples in .*bad.wav"):
        audio_io.load_session([str(path)], target_rate=8000)


def test_load_session_rejects_stereo_in_multi_file_mode(tmp_path):
    rate = 8000
    mono, stereo = tmp_path / "m.wav", tmp_path / "s.wav"
    wavfile.write(mono, rate, sine(200, rate, 0.3).astype(np.float32))
    wavfile.write(stereo, rate, np.stack([sine(200, rate, 0.3)] * 2, axis=1).astype(np.float32))
    with pytest.raises(ValueError, match="mono"):
        audio_io.load_session([str(mono), str(stereo)], target_rate=8000)


def _small_script(duration=12.0):
    return SessionScript(
        speakers=[VoiceSpec(f0_hz=110), VoiceSpec(f0_hz=180)],
        events=[(0, 0.5, 3.0), (1, 4.0, 3.0), (0, 8.0, 3.0)],
        total_duration_sec=duration,
    )


def test_synth_session_shape_and_reference():
    audio, ref = synth_session(_small_script(), 3, [0.0, 1.0, 2.0], [1.0, 0.8, 0.6], 20.0, seed=7, rate=8000)
    assert audio.channel_count == 3
    assert audio.n_samples == 12 * 8000
    assert [s[2] for s in ref.segments] == ["spk0", "spk1", "spk0"]


def test_synth_session_deterministic():
    args = (_small_script(), 2, [0.0, 2.0], [1.0, 0.7], 15.0)
    a1, _ = synth_session(*args, seed=3, rate=8000)
    a2, _ = synth_session(*args, seed=3, rate=8000)
    for c1, c2 in zip(a1.channels, a2.channels):
        assert np.array_equal(c1, c2)


def test_synth_session_empty_events_is_pure_noise():
    script = SessionScript(speakers=[VoiceSpec(f0_hz=120)], events=[], total_duration_sec=1.0)
    audio, ref = synth_session(script, 2, [0.0, 1.0], [1.0, 1.0], 15.0, seed=0, rate=8000)
    assert ref.segments == []
    assert np.std(audio.channels[0]) > 0


def test_synth_session_delay_shows_in_cross_correlation():
    delays = [0.0, 3.0]
    audio, _ = synth_session(_small_script(), 2, delays, [1.0, 1.0], 30.0, seed=1, rate=8000)
    rate = audio.sample_rate
    a = audio.channels[0][: 4 * rate]
    b = audio.channels[1][: 4 * rate]
    lags = np.arange(-50, 51)
    xc = [np.dot(a[max(0, -l) : len(a) - max(0, l)], b[max(0, l) : len(b) - max(0, -l)]) for l in lags]
    best = lags[int(np.argmax(xc))]
    assert abs(best - round(delays[1] * rate / 1000)) <= 1


def test_synth_session_rejects_huge_delay():
    with pytest.raises(ValueError, match="delay"):
        synth_session(_small_script(), 2, [0.0, 60.0], [1.0, 1.0], 15.0, seed=0, rate=8000)


def test_synth_session_rejects_close_fundamentals():
    script = SessionScript(
        speakers=[VoiceSpec(f0_hz=110), VoiceSpec(f0_hz=120)],
        events=[(0, 0.0, 1.0)],
        total_duration_sec=4.0,
    )
    with pytest.raises(ValueError, match="30 Hz"):
        synth_session(script, 1, [0.0], [1.0], 15.0, seed=0, rate=8000)


def test_read_segments_basic(tmp_path):
    path = tmp_path / "sad.txt"
    path.write_text("# comment\n0.00 2.50\n3.10 7.00\n")
    assert audio_io.read_segments(str(path)) == [(0.0, 2.5), (3.1, 7.0)]


def test_read_segments_end_before_start(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5.0 4.0\n")
    with pytest.raises(ValueError, match="line 1"):
        audio_io.read_segments(str(path))


@pytest.mark.parametrize("line", ["nan 4.0", "0.0 inf", "-inf 1.0"])
def test_read_segments_rejects_non_finite_times(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"0.0 1.0\n{line}\n")
    with pytest.raises(ValueError, match=r"bad\.txt: non-finite time at line 2"):
        audio_io.read_segments(str(path))


def test_read_segments_rejects_negative_start(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0\n-3.0 2.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt: negative start time at line 2"):
        audio_io.read_segments(str(path))


def test_read_segments_rttm_round_trip(tmp_path):
    hyp = DiarizationHypothesis([(0.5, 2.5, "spk0"), (3.0, 4.25, "spk1")])
    path = tmp_path / "ref.rttm"
    path.write_text(rttm_format(hyp, file_id="s1"))
    assert audio_io.read_segments(str(path)) == [(0.5, 2.5), (3.0, 4.25)]


def test_read_segments_rttm_drops_non_speech(tmp_path):
    path = tmp_path / "ref.rttm"
    path.write_text(
        "SPEAKER s1 1 0.000 5.000 <NA> <NA> spk0 <NA> <NA>\n"
        "SPEAKER s1 1 5.000 3.000 <NA> <NA> NS <NA> <NA>\n"
    )
    assert audio_io.read_segments(str(path)) == [(0.0, 5.0)]


def test_session_script_json_round_trip():
    voices = [
        VoiceSpec(f0_hz=110.0, tilt_db_per_octave=-4.5, resonances_hz=(450.0, 1300.0), vowel_spread=0.0, f0_jitter=0.1),
        VoiceSpec(f0_hz=190.0, vowel_spread=0.35, f0_jitter=0.0),
    ]
    script = SessionScript(speakers=voices, events=[(0, 0.5, 2.0), (1, 3.0, 1.5)], total_duration_sec=5.0)
    assert SessionScript.from_json(script.to_json()) == script


def test_session_script_json_missing_voice_fields_take_defaults():
    text = '{"total_duration_sec": 2.0, "speakers": [{"f0_hz": 120.0}], "events": [[0, 0.0, 1.0]]}'
    assert SessionScript.from_json(text).speakers == [VoiceSpec(f0_hz=120.0)]


@pytest.mark.parametrize(
    "field, value",
    [("f0_hz", 0.0), ("f0_hz", -50.0), ("f0_hz", math.nan), ("tilt_db_per_octave", math.inf),
     ("resonances_hz", (math.nan, 1500.0)), ("resonances_hz", (500.0, -1.0)),
     ("vowel_spread", 1.0), ("f0_jitter", -0.1), ("f0_hz", math.inf), ("f0_hz", 0.5), ("f0_jitter", math.nan)],
)  # fmt: skip
def test_voice_spec_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        VoiceSpec(**{"f0_hz": 120.0, field: value})


def test_voice_spec_floor_applies_to_the_lowest_rendered_f0():
    # 40 Hz with 50% jitter renders down to 20 Hz, under the floor.
    with pytest.raises(ValueError, match="f0_hz"):
        VoiceSpec(f0_hz=40.0, f0_jitter=0.5)
    VoiceSpec(f0_hz=audio_io.MIN_F0_HZ / 0.5, f0_jitter=0.5)


@pytest.mark.parametrize("duration", [-5.0, 0.0, math.nan, math.inf])
def test_session_script_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match="total_duration_sec"):
        SessionScript(speakers=[VoiceSpec(f0_hz=120.0)], events=[], total_duration_sec=duration)


@pytest.mark.parametrize("event", [(0, math.nan, 1.0), (0, 0.5, math.nan)])
def test_session_script_rejects_nan_event_times(event):
    with pytest.raises(ValueError, match="outside session"):
        SessionScript(speakers=[VoiceSpec(f0_hz=120.0)], events=[event], total_duration_sec=4.0)


def test_demo_script_shares_bias_speaking_time():
    script = demo_script(3, 600.0, seed=5, shares=[0.6, 0.25, 0.15])
    totals = np.zeros(3)
    for spk, _, dur in script.events:
        totals[spk] += dur
    assert totals[0] > totals[1] > totals[2]
