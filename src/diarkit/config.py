"""Every setting of the pipeline in one flat namespace, each checked once, on
construction; its fields are the keys of a ``--config`` file. The FFT size
and the number of merge rounds follow from them; fixed design values are
constants of the modules that read them, and the shared frame grid is here."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# The MFCC frame grid (Davis & Mermelstein, 1980), which every frame time follows.
WINDOW_SEC = 0.025
HOP_SEC = 0.010


@dataclass
class Config:
    sample_rate: int = 8000
    feature_kind: str = "bnf"  # bnf | mfcc91
    n_speakers: int = 4
    initial_states: int = 12
    min_duration_sec: float = 0.5
    mode: str = "oracle-sad"  # oracle-sad | no-sad
    seed: int = 0

    def __post_init__(self):
        for key, choices in (("feature_kind", ("bnf", "mfcc91")), ("mode", ("oracle-sad", "no-sad"))):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}, got {getattr(self, key)!r}")
        for key, low in (("n_speakers", 2), ("initial_states", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        # Every comparison below is also false for NaN.
        for key, ok, rule in (
            # The hop rounds to at least one sample, and the longer window then does too.
            ("sample_rate", self.sample_rate * HOP_SEC > 0.5, f"leave the {HOP_SEC:g} s hop at least one sample"),
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
