"""Every setting of the pipeline in one flat namespace; the FFT size and the
number of merge rounds follow from them, and fixed design values are
constants of the modules that read them. The fields are the keys of a
``--config`` file; each is checked once, on construction."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass
class Config:
    sample_rate: int = 8000
    window_sec: float = 0.025
    hop_sec: float = 0.010
    feature_kind: str = "bnf"  # bnf | mfcc91
    bottleneck_dim: int = 21
    corruption_level: float = 0.2  # std of the additive Gaussian noise
    # The loss sums squared error over every input dim (1001 for 7 spliced
    # channels), so the step has to be small: at 0.01 SGD is chaotic and the
    # trained features follow the BLAS summation order, i.e. the thread count.
    learning_rate: float = 0.001
    epochs: int = 10
    batch_size: int = 256
    n_speakers: int = 4
    initial_states: int = 12
    min_duration_sec: float = 0.5
    components_per_initial_segment: int = 2
    em_iters: int = 5
    mode: str = "oracle-sad"  # oracle-sad | no-sad
    seed: int = 0

    def __post_init__(self):
        for key, choices in (("feature_kind", ("bnf", "mfcc91")), ("mode", ("oracle-sad", "no-sad"))):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}, got {getattr(self, key)!r}")
        for key, low in (
            ("sample_rate", 1), ("bottleneck_dim", 1), ("epochs", 1), ("batch_size", 1), ("n_speakers", 2),
            ("initial_states", 1), ("components_per_initial_segment", 1), ("em_iters", 0), ("seed", 0),
        ):  # fmt: skip
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        one_sample = f"be finite and at least one sample at {self.sample_rate} Hz"
        # Every comparison below is also false for NaN.
        for key, ok, rule in (
            ("window_sec", 0.5 < self.window_sec * self.sample_rate < math.inf, one_sample),  # rounds to >= 1
            ("hop_sec", 0.5 < self.hop_sec * self.sample_rate < math.inf, one_sample),
            ("corruption_level", 0.0 <= self.corruption_level <= 1.0, "lie in [0, 1]"),
            ("learning_rate", 0.0 < self.learning_rate < math.inf, "be positive and finite"),
            ("min_duration_sec", 0.0 < self.min_duration_sec < math.inf, "be positive and finite"),
        ):
            if not ok:
                raise ValueError(f"{key} must {rule}, got {getattr(self, key)}")
        lo, hi = 3 * self.n_speakers, 6 * self.n_speakers
        if not (lo <= self.initial_states <= hi):
            warnings.warn(
                f"initial_states={self.initial_states} outside the recommended "
                f"[{lo}, {hi}] for {self.n_speakers} speakers"
            )
