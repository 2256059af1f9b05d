"""Informed HMM diarization.

Speech is over-segmented into OS chunks, each modeled by a small GMM; the
chunks become states of an HMM whose states are chains of T sub-states, so
every visit lasts at least the minimum turn duration. Segmental EM
(Viterbi alignment + per-state refits) alternates with a threshold-free
merge test: two states merge when a pooled GMM with as many parameters as
the two children scores their pooled frames higher than the children score
their own. Merging stops at the known speaker count or when no pair gains.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from .features import FeatureMatrix
from .gmm import Gmm
from .segments import NON_SPEECH_LABEL, DiarizationHypothesis, merge_contiguous


@dataclass
class DiarizerConfig:
    n_speakers: int
    initial_states: int = 12
    min_duration_sec: float = 0.5
    components_per_initial_segment: int = 2
    no_sad_mode: bool = False
    self_loop_prob: float = 0.9
    max_outer_iters: int = 30
    em_iters: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers")
        if self.min_duration_sec <= 0:
            raise ValueError("min_duration_sec must be positive")
        if not (0 < self.self_loop_prob < 1):
            raise ValueError("self_loop_prob must lie in (0, 1)")
        lo, hi = 3 * self.n_speakers, 6 * self.n_speakers
        if not (lo <= self.initial_states <= hi):
            warnings.warn(
                f"initial_states={self.initial_states} outside the recommended "
                f"[{lo}, {hi}] for {self.n_speakers} speakers"
            )


@dataclass
class HmmModel:
    """K states sharing one GMM each across T chained sub-states.

    Sub-state i advances to i+1 with probability 1; the last sub-state
    self-loops with ``self_loop_prob`` and exits to every other state's
    first sub-state with equal probability.
    """

    states: list[Gmm]
    min_dur_frames: int
    self_loop_prob: float = 0.9

    def __post_init__(self):
        if self.min_dur_frames < 1:
            raise ValueError("min_dur_frames must be >= 1")
        if not self.states:
            raise ValueError("need at least one state")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def log_emissions(self, X: np.ndarray) -> np.ndarray:
        """(frames, K) per-state log densities."""
        return np.column_stack([g.per_frame_log_likelihood(X) for g in self.states])

    def decode(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        return viterbi_path(self.log_emissions(X), self.min_dur_frames, self.self_loop_prob)

    def sub_state_transitions(self) -> np.ndarray:
        """Dense (K*T, K*T) transition matrix, for inspection and tests."""
        K, T = self.n_states, self.min_dur_frames
        trans = np.zeros((K * T, K * T))
        for k in range(K):
            base = k * T
            for j in range(T - 1):
                trans[base + j, base + j + 1] = 1.0
            last = base + T - 1
            if K == 1:
                trans[last, last] = 1.0
            else:
                trans[last, last] = self.self_loop_prob
                for k2 in range(K):
                    if k2 != k:
                        trans[last, k2 * T] = (1.0 - self.self_loop_prob) / (K - 1)
        return trans


def init_segmentation(n_frames: int, n_segments: int, min_segment_frames: int = 2) -> list[tuple[int, int]]:
    """Uniform partition into ``n_segments`` contiguous frame ranges whose
    sizes differ by at most one frame."""
    if n_frames < n_segments * min_segment_frames:
        raise ValueError(
            f"too few frames ({n_frames}) to cut {n_segments} segments of >= {min_segment_frames} frames"
        )
    bounds = np.linspace(0, n_frames, n_segments + 1).round().astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_segments)]


def viterbi_path(log_emissions: np.ndarray, min_dur_frames: int, self_loop_prob: float) -> tuple[np.ndarray, float]:
    """Best state path under the minimum-duration topology.

    Returns the per-frame parent-state labels and the joint log-probability
    of the winning sub-state path. The initial distribution is uniform over
    state entries; ties break toward the lower state index.
    """
    logb = np.asarray(log_emissions, dtype=np.float64)
    n_frames, K = logb.shape
    T = int(min_dur_frames)
    if n_frames < 1:
        raise ValueError("no frames to decode")
    if K == 1:
        score = float(logb[:, 0].sum())  # -log(1) initial, all transitions certain
        return np.zeros(n_frames, dtype=np.int64), score
    log_stay = np.log(self_loop_prob)
    log_exit = np.log((1.0 - self_loop_prob) / (K - 1))

    delta = np.full((K, T), -np.inf)
    delta[:, 0] = -np.log(K) + logb[0]
    entry_src = np.zeros((n_frames, K), dtype=np.int32)
    stay_won = np.zeros((n_frames, K), dtype=bool)

    for t in range(1, n_frames):
        exit_score = delta[:, -1] + log_exit
        top = int(np.argmax(exit_score))
        rest = np.delete(exit_score, top)
        second = int(np.argmax(rest))
        second += second >= top
        best_other = np.full(K, exit_score[top])
        best_src = np.full(K, top, dtype=np.int32)
        best_other[top] = exit_score[second]
        best_src[top] = second
        stay = delta[:, -1] + log_stay

        new = np.empty_like(delta)
        if T > 1:
            new[:, 1:] = delta[:, :-1]
            won = stay > new[:, -1]  # tie keeps the chain advance
            new[won, -1] = stay[won]
            new[:, 0] = best_other
        else:
            won = stay >= best_other  # tie keeps the current state (lower index path)
            new[:, 0] = np.where(won, stay, best_other)
        stay_won[t] = won
        entry_src[t] = best_src
        delta = new + logb[t][:, None]

    flat = int(np.argmax(delta))
    k, j = divmod(flat, T)
    score = float(delta[k, j])
    labels = np.empty(n_frames, dtype=np.int64)
    labels[-1] = k
    for t in range(n_frames - 1, 0, -1):
        if T == 1:
            if not stay_won[t, k]:
                k = int(entry_src[t, k])
        elif j == 0:
            k = int(entry_src[t, k])
            j = T - 1
        elif j == T - 1 and stay_won[t, k]:
            pass  # self-loop, stay in (k, T-1)
        else:
            j -= 1
        labels[t - 1] = k
    return labels, score


def segmental_em(
    model: HmmModel, X: np.ndarray, max_iters: int = 10
) -> tuple[HmmModel, np.ndarray, list[float], list[int]]:
    """Alternate Viterbi alignment and warm-started per-state GMM refits
    until the alignment stops changing.

    Returns the refined model, the final alignment, the per-decode path
    log-probabilities (non-decreasing up to EM tolerance), and the indices
    of the input states that survived; states that lose all frames are
    dropped with a warning.
    """
    X = np.asarray(X, dtype=np.float64)
    kept = list(range(model.n_states))
    labels, score = model.decode(X)
    history = [score]
    prev_labels = None
    for _ in range(max_iters):
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        states, survivors = [], []
        for k, g in enumerate(model.states):
            frames = X[labels == k]
            if len(frames) == 0:
                warnings.warn(f"state {k} lost all frames and was dropped")
                continue
            states.append(gmm_mod.em_refine(g, frames, max_iters=5))
            survivors.append(k)
        if len(survivors) < model.n_states:
            kept = [kept[k] for k in survivors]
            prev_labels = None  # state indices changed; old alignment is stale
        else:
            prev_labels = labels
        model = HmmModel(states=states, min_dur_frames=model.min_dur_frames, self_loop_prob=model.self_loop_prob)
        labels, score = model.decode(X)
        history.append(score)
    return model, labels, history, kept


def merge_gain(g1: Gmm, X1: np.ndarray, g2: Gmm, X2: np.ndarray, refine_iters: int = 5) -> float:
    """Log-likelihood gain of modeling the pooled frames with one pooled
    mixture versus the children modeling their own frames.

    Positive gain accepts the merge hypothesis; the pooled model keeps the
    children's total parameter count, so no penalty term is needed.
    """
    gain, _ = _merge_fit(g1, X1, g2, X2, refine_iters)
    return gain


def _merge_fit(g1: Gmm, X1: np.ndarray, g2: Gmm, X2: np.ndarray, refine_iters: int = 5) -> tuple[float, Gmm]:
    X1 = np.atleast_2d(X1)
    X2 = np.atleast_2d(X2)
    pooled = np.vstack([X1, X2])
    min_frames = 2 * (g1.n_components + g2.n_components)
    if len(pooled) < min_frames:
        raise ValueError(f"merge test needs at least {min_frames} pooled frames, got {len(pooled)}")
    merged = gmm_mod.em_refine(gmm_mod.merge_init(g1, g2), pooled, max_iters=refine_iters, tol=0.0)
    gain = merged.log_likelihood(pooled) - (g1.log_likelihood(X1) + g2.log_likelihood(X2))
    return float(gain), merged


def _segments_from_labels(
    labels: np.ndarray,
    frame_index: np.ndarray,
    hop_sec: float,
    window_sec: float,
    names: list[str],
) -> list[tuple[float, float, str]]:
    """Turn per-frame labels into time segments, splitting runs wherever the
    original frame index jumps (removed non-speech). A run ends at the start
    time of the frame after its last, computed the same way as a start, so
    adjacent runs share one boundary value and never overlap."""
    half = window_sec / 2.0
    segs = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        boundary = i == len(labels) or labels[i] != labels[i - 1] or frame_index[i] != frame_index[i - 1] + 1
        if boundary:
            t0 = frame_index[run_start] * hop_sec + half - hop_sec / 2.0
            t1 = (frame_index[i - 1] + 1) * hop_sec + half - hop_sec / 2.0
            segs.append((max(0.0, t0), t1, names[labels[run_start]]))
            run_start = i
    return merge_contiguous(segs)


def diarize(X: FeatureMatrix, cfg: DiarizerConfig) -> tuple[DiarizationHypothesis, dict]:
    """Full loop: over-segment, fit initial GMM states, then alternate
    segmental EM and greedy best-pair merging until the speaker-count target
    or no remaining pair improves the pooled likelihood.

    In NO-SAD mode all frames participate and one extra state, initialized
    from the masked non-speech frames, absorbs pauses; its output label is
    the reserved non-speech label.
    """
    data = X.data
    n_frames = X.n_frames
    frame_index = X.frame_index if X.frame_index is not None else np.arange(n_frames)
    mask = X.speech_mask if X.speech_mask is not None else np.ones(n_frames, dtype=bool)

    T = max(1, int(round(cfg.min_duration_sec / X.hop_sec)))
    m_s = cfg.components_per_initial_segment

    speech_rows = np.where(mask)[0]
    if cfg.no_sad_mode:
        ns_rows = np.where(~mask)[0]
        if len(ns_rows) < 2 * m_s:
            raise ValueError("NO-SAD mode needs non-speech frames (mask) to seed the extra state")
    else:
        if not mask.all():
            data = data[speech_rows]
            frame_index = frame_index[speech_rows]
            n_frames = len(data)
            speech_rows = np.arange(n_frames)
        ns_rows = np.array([], dtype=np.int64)

    ranges = init_segmentation(len(speech_rows), cfg.initial_states, max(T, 2 * m_s))
    states = [
        gmm_mod.em_fit(data[speech_rows[lo:hi]], m_s, seed=cfg.seed + 101 * i)
        for i, (lo, hi) in enumerate(ranges)
    ]
    ns_state: Gmm | None = None
    if cfg.no_sad_mode:
        ns_state = gmm_mod.em_fit(data[ns_rows], m_s, seed=cfg.seed + 7)
        states = states + [ns_state]
        ns_idx = len(states) - 1
    else:
        ns_idx = -1

    model = HmmModel(states=states, min_dur_frames=T, self_loop_prob=cfg.self_loop_prob)
    em_history: list[float] = []
    merge_trace: list[dict] = []
    stop_reason = "max_outer_iters"
    labels = np.zeros(n_frames, dtype=np.int64)

    def remap_ns(idx: int, kept: list[int]) -> int:
        return kept.index(idx) if idx in kept else -1

    for _ in range(cfg.max_outer_iters):
        model, labels, hist, kept = segmental_em(model, data, max_iters=cfg.em_iters)
        em_history.extend(hist)
        if ns_idx >= 0:
            ns_idx = remap_ns(ns_idx, kept)
        n_speaker_states = model.n_states - (1 if ns_idx >= 0 else 0)
        if n_speaker_states <= cfg.n_speakers:
            stop_reason = "reached_target_states"
            break

        speaker_ids = [k for k in range(model.n_states) if k != ns_idx]
        best = None
        for a_pos in range(len(speaker_ids)):
            for b_pos in range(a_pos + 1, len(speaker_ids)):
                a, b = speaker_ids[a_pos], speaker_ids[b_pos]
                Xa, Xb = data[labels == a], data[labels == b]
                if len(Xa) == 0 or len(Xb) == 0:
                    continue
                try:
                    gain, merged = _merge_fit(model.states[a], Xa, model.states[b], Xb)
                except ValueError:
                    continue
                if best is None or gain > best[0]:
                    best = (gain, a, b, merged)
        if best is None or best[0] <= 0:
            stop_reason = "no_positive_merge_gain"
            break
        gain, a, b, merged = best
        merge_trace.append({"pair": [int(a), int(b)], "gain": gain, "states_after": model.n_states - 1})
        new_states = [merged if k == a else g for k, g in enumerate(model.states) if k != b]
        if ns_idx > b:
            ns_idx -= 1
        model = HmmModel(states=new_states, min_dur_frames=T, self_loop_prob=cfg.self_loop_prob)

    model, labels, hist, kept = segmental_em(model, data, max_iters=cfg.em_iters)
    em_history.extend(hist)
    if ns_idx >= 0:
        ns_idx = remap_ns(ns_idx, kept)

    names = []
    spk = 0
    for k in range(model.n_states):
        if k == ns_idx:
            names.append(NON_SPEECH_LABEL)
        else:
            names.append(f"spk{spk}")
            spk += 1
    segs = _segments_from_labels(labels, frame_index, X.hop_sec, X.window_sec, names)
    hyp = DiarizationHypothesis(segs)
    meta = {
        "final_states": model.n_states,
        "final_speaker_states": model.n_states - (1 if ns_idx >= 0 else 0),
        "target_speakers": cfg.n_speakers,
        "stop_reason": stop_reason,
        "min_dur_frames": T,
        "em_path_log_prob": em_history,
        "merge_trace": merge_trace,
        "no_sad_mode": cfg.no_sad_mode,
    }
    return hyp, meta
