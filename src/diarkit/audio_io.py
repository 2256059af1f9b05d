"""Session audio: loading, resampling, synthesis, and segment files."""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.io import wavfile

from .segments import DiarizationHypothesis, rttm_read

CHANNEL_LENGTH_TOLERANCE_SEC = 0.010

# The resampler's fixed filter: a Kaiser-windowed sinc of fixed support.
_KAISER_BETA = 8.0
_SINC_TAPS = 64

MAX_DELAY_MS = 50.0

MIN_F0_HZ = 30.0  # lowest rendered fundamental: synthesis time grows as 1 / f0


@dataclass
class MultiStreamAudio:
    """Synchronized single-speaker-array channels at a common sample rate,
    each at the dtype ``_read_wav`` or ``resample`` gives it."""

    channels: list[np.ndarray]
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not self.channels:
            raise ValueError("need at least one channel")
        lengths = {len(c) for c in self.channels}
        if len(lengths) != 1:
            raise ValueError(f"channels differ in length: {sorted(lengths)}")

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def duration_sec(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass
class VoiceSpec:
    """Harmonic voice: pitch, spectral tilt, and formant-like resonances.

    ``vowel_spread`` and ``f0_jitter`` set how much each turn's resonances
    and pitch wander around the base values, so one speaker's turns are
    varied (multi-modal in feature space) the way real speech is.
    """

    f0_hz: float
    tilt_db_per_octave: float = -6.0
    resonances_hz: tuple[float, ...] = (500.0, 1500.0, 2500.0)
    vowel_spread: float = 0.20
    f0_jitter: float = 0.04

    def __post_init__(self):
        self.resonances_hz = tuple(self.resonances_hz)
        # Every comparison below is also false for NaN.
        for key, ok, rule in (
            ("tilt_db_per_octave", math.isfinite(self.tilt_db_per_octave), "be finite"),
            ("resonances_hz", all(0.0 < fc < math.inf for fc in self.resonances_hz), "be positive and finite"),
            ("vowel_spread", 0.0 <= self.vowel_spread < 1.0, "lie in [0, 1)"),
            ("f0_jitter", 0.0 <= self.f0_jitter < 1.0, "lie in [0, 1)"),
            ("f0_hz", MIN_F0_HZ <= self.f0_hz * (1.0 - self.f0_jitter) < math.inf,
             f"be finite, with f0_hz * (1 - f0_jitter) at least {MIN_F0_HZ:g} Hz"),
        ):
            if not ok:
                raise ValueError(f"voice {key} must {rule}, got {getattr(self, key)}")


@dataclass
class SessionScript:
    """Ground-truth plan for a synthetic session.

    Events are ``(speaker_index, start_sec, duration_sec)`` and must not
    overlap: the reference derived from them is single-label.
    """

    speakers: list[VoiceSpec]
    events: list[tuple[int, float, float]]
    total_duration_sec: float

    def __post_init__(self):
        if not 0.0 < self.total_duration_sec < math.inf:  # also false for NaN
            raise ValueError(f"total_duration_sec must be positive and finite, got {self.total_duration_sec}")
        self.events = sorted(self.events, key=lambda e: e[1])
        prev_end = 0.0
        for spk, start, dur in self.events:
            if not (0 <= spk < len(self.speakers)):
                raise ValueError(f"event speaker index {spk} out of range")
            if not (start >= 0 and dur > 0 and start + dur <= self.total_duration_sec + 1e-9):  # also true for NaN
                raise ValueError(f"event ({spk}, {start}, {dur}) outside session")
            if start < prev_end - 1e-9:
                raise ValueError(f"events overlap at t={start}")
            prev_end = start + dur

    def reference(self) -> DiarizationHypothesis:
        segs = [(start, start + dur, f"spk{spk}") for spk, start, dur in self.events]
        return DiarizationHypothesis(segs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "total_duration_sec": self.total_duration_sec,
                "speakers": [asdict(v) for v in self.speakers],
                "events": [[spk, start, dur] for spk, start, dur in self.events],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "SessionScript":
        """Inverse of ``to_json``; a voice field missing from the file keeps
        its default."""
        raw = json.loads(text)
        speakers = [VoiceSpec(**v) for v in raw["speakers"]]
        events = [(int(e[0]), float(e[1]), float(e[2])) for e in raw["events"]]
        return cls(speakers=speakers, events=events, total_duration_sec=float(raw["total_duration_sec"]))


def _read_wav(path: str) -> tuple[int, np.ndarray]:
    """Rate and samples at the narrowest float type that holds the file's
    values exactly: float32 for float32 and int16 files (``int16 / 32768`` is
    exact in float32), float64 for int32 and float64 files. Float samples are
    not copied."""
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise ValueError(f"unreadable WAV file {path!r}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"zero-length audio in {path!r}")
    if data.dtype == np.int16:
        data = data / np.float32(32768.0)
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        # min and max propagate NaN; unlike isfinite they allocate no mask
        # as long as the audio.
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError(f"non-finite samples in {path!r}")
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path!r}")
    return int(rate), data


def wav_bytes(samples: np.ndarray, rate: int) -> bytes:
    """``samples`` as a float32 WAV file."""
    buf = io.BytesIO()
    wavfile.write(buf, rate, samples.astype(np.float32))
    return buf.getvalue()


def _kaiser_sinc_taps(up: int, down: int) -> np.ndarray:
    """The anti-alias filter of an ``up``/``down`` rate change, scaled by
    ``up``: ``_SINC_TAPS * up + 1`` taps of a sinc cut off at ``1 / max(up,
    down)`` of the Nyquist rate under a Kaiser window, normalized to unit DC
    gain. Each step is the expression ``scipy.signal.firwin`` evaluates, so
    the taps have its bytes."""
    from scipy.special import i0

    numtaps = _SINC_TAPS * up + 1
    cutoff = np.float64(1 / max(up, down))
    alpha = 0.5 * (numtaps - 1)
    m = np.arange(0, numtaps, dtype=np.float64) - alpha
    h = cutoff * np.sinc(cutoff * m)
    h *= i0(_KAISER_BETA * np.sqrt(1 - (m / alpha) ** 2.0)) / i0(np.float64(_KAISER_BETA))
    h /= np.sum(h)
    h *= up
    return h


def resample(signal: np.ndarray, in_rate: int, out_rate: int) -> np.ndarray:
    """Polyphase resampling through a Kaiser-windowed sinc (``_SINC_TAPS``
    taps at the input rate, cut off at the lower of the two Nyquist rates).
    The output has ``len(signal) * out_rate // in_rate`` samples, with the
    bytes of ``scipy.signal.resample_poly`` given the same taps: each output
    sums its products in upfirdn's order, oldest input sample first.

    Returns ``signal`` itself when the rates match, at its own dtype; only a
    real resample converts it, to float64.
    """
    if in_rate == out_rate:
        return signal
    signal = np.asarray(signal)
    g = math.gcd(in_rate, out_rate)
    up, down = out_rate // g, in_rate // g
    h = _kaiser_sinc_taps(up, down)
    # The filter, delayed by pre_pad zero taps, splits into up phases of
    # n_taps taps each: phase t holds taps[k * up + t]. Output i is sample
    # i + skip of the upsampled, filtered and decimated input, which centres
    # the filter on it.
    half_len = (len(h) - 1) // 2
    pre_pad = down - half_len % down
    skip = (half_len + pre_pad) // down
    n_taps = -(-(pre_pad + len(h)) // up)
    taps = np.zeros(n_taps * up)
    taps[pre_pad : pre_pad + len(h)] = h

    # Output i = q * up + r sums phase (r + skip) * down % up, tap k, times
    # input sample c_r + q * down - k, where c_r = (r + skip) * down // up.
    # For fixed r and k those samples are every down-th one: a contiguous
    # run of one deinterleaved, zero-padded input stream.
    n_out = len(signal) * up // down
    counts = [len(range(r, n_out, up)) for r in range(up)]
    starts = [(r + skip) * down // up for r in range(up)]
    lead = -(-(n_taps - 1) // down)  # zeros before each stream
    width = lead + max(-(-len(signal) // down), max(c // down + n for c, n in zip(starts, counts)))
    streams = np.zeros((down, width))
    for s in range(down):
        stream = signal[s::down]
        streams[s, lead : lead + len(stream)] = stream

    # Filtered in runs of 2**15 outputs, so that the run and its product
    # stay in cache across the taps.
    run = 1 << 15
    out = np.zeros((up, counts[0]))
    product = np.empty(min(run, counts[0]))
    for r, (c, n) in enumerate(zip(starts, counts)):
        phase = (r + skip) * down % up
        for q in range(0, n, run):
            acc = out[r, q : min(q + run, n)]
            prod = product[: len(acc)]
            for k in range(n_taps - 1, -1, -1):
                o, s = divmod(c - k, down)
                begin = lead + o + q
                np.multiply(streams[s, begin : begin + len(acc)], taps[k * up + phase], out=prod)
                acc += prod
    return out.T.ravel()[:n_out]


def load_session(paths: list[str], target_rate: int) -> MultiStreamAudio:
    """Load one mono WAV per channel (or a single multi-channel WAV) and
    resample everything to ``target_rate``.

    Channels are truncated to the shortest stream; a channel more than
    ``CHANNEL_LENGTH_TOLERANCE_SEC`` (10 ms) longer than it is rejected.
    """
    if not paths:
        raise ValueError("no input files")
    raw: list[tuple[str, int, np.ndarray]] = []
    for path in paths:
        rate, data = _read_wav(path)
        if data.ndim != 1 and len(paths) > 1:
            raise ValueError(f"expected mono WAV, got {data.shape[1]} channels in {path!r}")
        raw += [(path, rate, channel) for channel in np.atleast_2d(data.T)]  # views, one per channel

    durations = [len(d) / r for _, r, d in raw]
    shortest = min(durations)
    for (path, _, _), dur in zip(raw, durations):
        if dur - shortest > CHANNEL_LENGTH_TOLERANCE_SEC:
            raise ValueError(
                f"channel duration mismatch: {path!r} is {dur - shortest:.3f} s longer than the shortest stream"
            )
    channels = [resample(d, r, target_rate) for _, r, d in raw]
    n = min(len(c) for c in channels)
    channels = [c[:n] for c in channels]
    return MultiStreamAudio(channels=channels, sample_rate=target_rate)


def _render_tone_complex(voice: VoiceSpec, n: int, rate: int, f0_scale: float, vowel_scale: float) -> np.ndarray:
    """Additive harmonic unit shaped by tilt and resonance gains."""
    t = np.arange(n) / rate
    f0 = voice.f0_hz * f0_scale
    f_max = 0.45 * rate
    n_harm = max(1, int(f_max / f0))
    h = np.arange(1, n_harm + 1, dtype=np.float64)
    freqs = h * f0
    amps = 10.0 ** (voice.tilt_db_per_octave * np.log2(h) / 20.0)
    res_gain = np.full_like(freqs, 0.05)
    for fc in voice.resonances_hz:
        fc = fc * vowel_scale
        bw = 0.15 * fc
        res_gain += (bw / 2) ** 2 / ((freqs - fc) ** 2 + (bw / 2) ** 2)
    amps *= res_gain
    sig = np.zeros(n)
    for a, f in zip(amps, freqs):
        sig += a * np.sin(2 * np.pi * f * t)
    rms = np.sqrt(np.mean(sig**2))
    return 0.1 * sig / max(rms, 1e-12)


def _render_voice(voice: VoiceSpec, n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """A turn is a run of phone-like units (150-350 ms), each with its own
    resonance and pitch scale, so one speaker's frames are multi-modal the
    way real speech is."""
    out = np.empty(n)
    edge = max(2, int(0.005 * rate))
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    pos = 0
    while pos < n:
        unit_len = min(n - pos, int(rng.uniform(0.15, 0.35) * rate))
        f0_scale = 1.0 + voice.f0_jitter * float(rng.uniform(-1, 1))
        vowel_scale = 1.0 + voice.vowel_spread * float(rng.uniform(-1, 1))
        unit = _render_tone_complex(voice, unit_len, rate, f0_scale, vowel_scale)
        if unit_len > 2 * edge:
            unit[:edge] *= ramp
            unit[-edge:] *= ramp[::-1]
        out[pos : pos + unit_len] = unit
        pos += unit_len
    return out


def synth_session(
    script: SessionScript,
    channel_count: int,
    delays_ms: list[float],
    gains: list[float],
    noise_snr_db: float,
    seed: int,
    rate: int,
) -> tuple[MultiStreamAudio, DiarizationHypothesis]:
    """Render a scripted multi-speaker session into C delayed, scaled,
    noise-corrupted copies of one mix, plus the reference segmentation.

    Deterministic given (script, params, seed).
    """
    if len(delays_ms) != channel_count or len(gains) != channel_count:
        raise ValueError("delays_ms and gains must have one entry per channel")
    if any(d > MAX_DELAY_MS or d < 0 for d in delays_ms):
        raise ValueError(f"channel delays must lie in [0, {MAX_DELAY_MS}] ms")
    f0s = sorted(v.f0_hz for v in script.speakers)
    for a, b in zip(f0s, f0s[1:]):
        if b - a < 30.0:
            raise ValueError("speaker fundamentals must differ by at least 30 Hz")

    n = int(round(script.total_duration_sec * rate))
    mix = np.zeros(n)
    speech_mask = np.zeros(n, dtype=bool)
    fade = int(0.020 * rate)
    voice_rng = np.random.default_rng(seed)
    for spk, start, dur in script.events:
        i0, i1 = int(round(start * rate)), min(n, int(round((start + dur) * rate)))
        if i1 <= i0:
            continue
        seg = _render_voice(script.speakers[spk], i1 - i0, rate, voice_rng)
        env = np.ones(i1 - i0)
        k = min(fade, len(env) // 2)
        if k > 0:
            ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(k) / k)
            env[:k] *= ramp
            env[-k:] *= ramp[::-1]
        mix[i0:i1] += seg * env
        speech_mask[i0:i1] = True

    rng = np.random.default_rng(seed)
    p_speech = np.mean(mix[speech_mask] ** 2) if speech_mask.any() else 0.0
    channels = []
    for c in range(channel_count):
        shift = int(round(delays_ms[c] * rate / 1000.0))
        delayed = np.concatenate([np.zeros(shift), mix])[:n]
        chan = gains[c] * delayed
        if p_speech > 0:
            noise_std = math.sqrt(gains[c] ** 2 * p_speech / 10.0 ** (noise_snr_db / 10.0))
        else:
            noise_std = 1e-3
        chan = chan + rng.normal(0.0, noise_std, n)
        channels.append(chan)
    return MultiStreamAudio(channels=channels, sample_rate=rate), script.reference()


def demo_script(
    n_speakers: int,
    duration_sec: float,
    seed: int,
    turn_range: tuple[float, float] = (2.0, 6.0),
    gap_range: tuple[float, float] = (0.3, 0.8),
    shares: list[float] | None = None,
) -> SessionScript:
    """Random conversation plan: alternating turns with short pauses.

    ``shares`` biases how often each speaker takes the floor, so total
    speaking time tracks the requested proportions.
    """
    rng = np.random.default_rng(seed)
    voices = [
        VoiceSpec(
            f0_hz=100.0 + 40.0 * i,
            tilt_db_per_octave=-5.0 - 1.0 * (i % 3),
            resonances_hz=(400.0 + 90.0 * i, 1200.0 + 220.0 * i, 2300.0 + 150.0 * i),
        )
        for i in range(n_speakers)
    ]
    if shares is None:
        probs = np.full(n_speakers, 1.0 / n_speakers)
    else:
        if len(shares) != n_speakers:
            raise ValueError("shares must have one entry per speaker")
        probs = np.asarray(shares, dtype=np.float64)
        probs = probs / probs.sum()
    events = []
    t = float(rng.uniform(*gap_range))
    prev = -1
    while True:
        p = probs.copy()
        if prev >= 0 and n_speakers > 1:
            p[prev] = 0.0
            p = p / p.sum()
        spk = int(rng.choice(n_speakers, p=p))
        dur = float(rng.uniform(*turn_range)) * (0.5 + probs[spk] * n_speakers / 2)
        if t + dur > duration_sec - 0.2:
            break
        events.append((spk, round(t, 3), round(dur, 3)))
        t += dur + float(rng.uniform(*gap_range))
        prev = spk
    return SessionScript(speakers=voices, events=events, total_duration_sec=duration_sec)


def read_segments(path: str) -> list[tuple[float, float]]:
    """Speech-activity intervals, sorted: ``start_sec end_sec [label]`` per
    line with ``#`` comments, or an RTTM file (detected, and read by
    ``rttm_read``, so its ``NS`` records are dropped). Labels are ignored,
    and intervals may overlap: they only mark frames as speech.
    """
    with open(path, encoding="utf-8") as fh:
        body = [ln.strip() for ln in fh]
    if any(ln.startswith("SPEAKER") for ln in body):
        return [(start, end) for start, end, _ in rttm_read(path).segments]

    out = []
    for lineno, line in enumerate(body, start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}: unparsable segment line {lineno}: {line!r}")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}: unparsable segment line {lineno}: {line!r}") from exc
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"{path}: non-finite time at line {lineno}")
        if start < 0:
            raise ValueError(f"{path}: negative start time at line {lineno}")
        if end <= start:
            raise ValueError(f"{path}: end before start at line {lineno}")
        out.append((start, end))
    return sorted(out)


def sad_from_script(script: SessionScript) -> list[tuple[float, float]]:
    """Speech-activity intervals implied by a script's events, one per event."""
    return [(s, s + d) for _, s, d in script.events]
