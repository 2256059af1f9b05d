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

import itertools
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import gmm as gmm_mod
from .config import HOP_SEC, WINDOW_SEC, Config
from .features import FeatureMatrix
from .gmm import Gmm
from .segments import DiarizationHypothesis

# EM iterations a merge trial runs on the pooled frames.
MERGE_REFINE_ITERS = 5
EM_ITERS = 5  # segmental-EM passes (align + refit) per merge round, at most
COMPONENTS_PER_SEGMENT = 2  # GMM components of each initial state (M_s)

SELF_LOOP_PROB = 0.9  # see ``HmmModel``


@dataclass
class HmmModel:
    """K states sharing one GMM each across T chained sub-states.

    Sub-state i advances to i+1 with probability 1; the last sub-state
    self-loops with ``SELF_LOOP_PROB`` and exits to every other state's
    first sub-state with equal probability.
    """

    states: list[Gmm]
    min_dur_frames: int

    def __post_init__(self):
        if self.min_dur_frames < 1:
            raise ValueError("min_dur_frames must be >= 1")
        if not self.states:
            raise ValueError("need at least one state")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def log_emissions(self, X: np.ndarray) -> np.ndarray:
        """(frames, K) per-state log densities, each state's components
        centred on that state's own means."""
        return np.column_stack([g.per_frame_log_likelihood(X) for g in self.states])

    def decode(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        return viterbi_path(self.log_emissions(X), self.min_dur_frames, SELF_LOOP_PROB)


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
    state entries; ties break toward the lower state index, a chain arrival
    beats an equal self-loop, and at ``min_dur_frames == 1`` a tie keeps the
    current state.

    The recursion is explicit-duration: only each state's last sub-state is
    carried, and sub-state ``j`` at frame ``t`` is the entry score at
    ``t - j`` plus a window of emissions. A visit entered at ``s`` reaches
    its last sub-state at ``s + T - 1``, so within a block ``[b, b + T)``
    every chain arrival comes from an entry made at or before ``b`` and the
    block is advanced in a few array operations.
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

    # Row t + T - 1 of `entry` and `csum` holds frame t; the T - 1 leading
    # rows stand for frames before the start, which no visit enters.
    entry = np.full((n_frames + T, K), -np.inf)  # entry score, emission excluded
    entry[T - 1] = -np.log(K)
    csum = np.zeros((n_frames + T, K))
    np.cumsum(logb, axis=0, out=csum[T:])  # csum[t + T - 1] = logb[:t].sum()
    last = np.empty((n_frames, K))  # last sub-state score
    arrival = np.empty((n_frames, K), dtype=np.int64)  # frame the visit's chain reached the last sub-state
    top = np.zeros(n_frames, dtype=np.int64)  # best exit at each frame
    second = np.zeros(n_frames, dtype=np.int64)  # best exit other than `top`
    rows = np.arange(T)
    carry_score, carry_arrival = np.full(K, -np.inf), np.full(K, -1)
    for b in range(0, n_frames, T):
        e = min(b + T, n_frames)
        r = rows[: e - b]
        # chain[t] = entry[t - T + 1] + logb[t - T + 1 : t].sum(): arrival before emission t
        chain = entry[b:e] + (csum[b + T - 1 : e + T - 1] - csum[b:e])
        # last[t] = max(last[t - 1] + log_stay, chain[t]) + logb[t], unrolled over
        # the block with steps[t] = sum of (logb + log_stay) over [b, t). The
        # block's first frame compares exactly as the one-frame recursion does.
        steps = np.zeros((e - b, K))
        np.cumsum(logb[b : e - 1] + log_stay, axis=0, out=steps[1:])
        chain_rel = chain - steps
        run_max = np.maximum.accumulate(np.vstack([carry_score + log_stay, chain_rel]), axis=0)
        chain_won = chain_rel > run_max[:-1] if T == 1 else chain_rel >= run_max[:-1]
        last[b:e] = steps + run_max[1:] + logb[b:e]
        won_at = np.maximum.accumulate(np.where(chain_won, (b + r)[:, None], -1), axis=0)
        arrival[b:e] = np.where(won_at >= 0, won_at, carry_arrival)
        carry_score, carry_arrival = last[e - 1], arrival[e - 1]

        exits = last[b:e] + log_exit
        top[b:e] = exits.argmax(axis=1)
        best_exit = exits[r, top[b:e]]
        exits[r, top[b:e]] = -np.inf
        second[b:e] = exits.argmax(axis=1)
        nxt = np.repeat(best_exit[:, None], K, axis=1)
        nxt[r, top[b:e]] = exits[r, second[b:e]]  # the best exit cannot re-enter its own state
        entry[b + T : e + T] = nxt

    # Scores at the last frame, (K, T) sub-states in row-major order as the
    # tie-break reads them; sub-state j < T - 1 was entered at n - 1 - j.
    final = np.empty((K, T))
    final[:, T - 1] = last[-1]
    if T > 1:
        idx = n_frames + T - 2 - np.arange(T - 1)
        final[:, : T - 1] = (entry[idx] + (csum[n_frames + T - 1] - csum[idx])).T
    k, j = divmod(int(np.argmax(final)), T)
    score = float(final[k, j])

    labels = np.empty(n_frames, dtype=np.int64)
    t = n_frames - 1
    s = t - j if j < T - 1 else int(arrival[t, k]) - T + 1
    while True:
        labels[s : t + 1] = k
        if s == 0:
            return labels, score
        t = s - 1
        k = int(second[t]) if top[t] == k else int(top[t])
        s = int(arrival[t, k]) - T + 1


def segmental_em(
    model: HmmModel, X: np.ndarray, max_iters: int
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
        model = HmmModel(states=states, min_dur_frames=model.min_dur_frames)
        labels, score = model.decode(X)
        history.append(score)
    return model, labels, history, kept


def merge_gain(g1: Gmm, X1: np.ndarray, ll1: float, g2: Gmm, X2: np.ndarray, ll2: float) -> tuple[float, Gmm]:
    """Log-likelihood gain of modeling the pooled frames with one pooled
    mixture versus the children modeling their own frames, given each
    child's log-likelihood ``ll1``, ``ll2`` on its own frames; also returns
    the pooled mixture.

    Positive gain accepts the merge hypothesis; the pooled model keeps the
    children's total parameter count, so no penalty term is needed.
    """
    pooled = np.vstack([X1, X2])
    min_frames = 2 * (g1.n_components + g2.n_components)
    if len(pooled) < min_frames:
        raise ValueError(f"merge test needs at least {min_frames} pooled frames, got {len(pooled)}")
    merged = gmm_mod.em_refine(gmm_mod.merge_init(g1, g2), pooled, max_iters=MERGE_REFINE_ITERS, tol=0.0)
    return merged.fit_log_likelihood - (ll1 + ll2), merged


def _segments_from_labels(
    labels: np.ndarray, frame_index: np.ndarray, names: list[str]
) -> list[tuple[float, float, str]]:
    """Turn per-frame labels into time segments, splitting runs wherever the
    original frame index jumps (removed non-speech). A run of a label past
    the end of ``names`` (the non-speech state) gives no segment. A run ends
    at the start time of the frame after its last, computed the same way as
    a start, so adjacent runs share one boundary value and never overlap.
    Two runs of one label are split only at a frame gap, so at least one hop
    lies between them."""
    segs = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        boundary = i == len(labels) or labels[i] != labels[i - 1] or frame_index[i] != frame_index[i - 1] + 1
        if boundary:
            if labels[run_start] < len(names):
                t0 = frame_index[run_start] * HOP_SEC + WINDOW_SEC / 2.0 - HOP_SEC / 2.0
                t1 = (frame_index[i - 1] + 1) * HOP_SEC + WINDOW_SEC / 2.0 - HOP_SEC / 2.0
                segs.append((max(0.0, t0), t1, names[labels[run_start]]))
            run_start = i
    return segs


def diarize(X: FeatureMatrix, cfg: Config) -> tuple[DiarizationHypothesis, dict]:
    """Full loop: over-segment, fit initial GMM states, then alternate
    segmental EM and greedy best-pair merging until the speaker-count target
    or no remaining pair improves the pooled likelihood. A round that does
    not stop merges two states, so at most ``initial_states + 1`` rounds run.
    A run whose dropped states leave fewer speaker states than the target
    stops with ``below_target_states``.

    Without a ``speech_mask`` (oracle-SAD mode) ``X`` holds speech frames
    only, with ``frame_index`` mapping rows back to their original frames.
    With one (NO-SAD mode) all frames participate and one extra state,
    initialized from the masked non-speech frames, absorbs pauses; it is
    appended last and never merged, so it stays last, and its frames give
    no segment.
    """
    data = X.data
    frame_index = X.frame_index if X.frame_index is not None else np.arange(X.n_frames)
    has_ns = X.speech_mask is not None

    T = max(1, int(round(cfg.min_duration_sec / HOP_SEC)))
    m_s = COMPONENTS_PER_SEGMENT

    speech_rows = np.flatnonzero(X.speech_mask) if has_ns else np.arange(X.n_frames)
    if has_ns:
        ns_rows = np.flatnonzero(~X.speech_mask)
        if len(ns_rows) < 2 * m_s:
            raise ValueError("NO-SAD mode needs non-speech frames (mask) to seed the extra state")

    ranges = init_segmentation(len(speech_rows), cfg.initial_states, max(T, 2 * m_s))
    states = [
        gmm_mod.em_fit(data[speech_rows[lo:hi]], m_s, seed=cfg.seed + 101 * i)
        for i, (lo, hi) in enumerate(ranges)
    ]
    if has_ns:
        states.append(gmm_mod.em_fit(data[ns_rows], m_s, seed=cfg.seed + 7))

    model = HmmModel(states=states, min_dur_frames=T)
    em_history: list[float] = []
    merge_trace: list[dict] = []
    skipped_merge_pairs: list[dict] = []
    dropped_states: list[dict] = []
    stop_reason = None
    # Every round aligns first; the round after a stop only aligns.
    for round_idx in itertools.count():
        n_in = model.n_states
        model, labels, hist, kept = segmental_em(model, data, max_iters=EM_ITERS)
        em_history.extend(hist)
        dropped_states.extend({"round": round_idx, "state": k} for k in range(n_in) if k not in kept)
        has_ns = has_ns and kept[-1] == n_in - 1
        n_speaker_states = model.n_states - has_ns
        if stop_reason:
            break
        if n_speaker_states <= cfg.n_speakers:
            stop_reason = "reached_target_states"
            continue

        own = {}  # speaker state -> (its frames, its log-likelihood on them)
        for k in range(n_speaker_states):
            frames = data[labels == k]
            if len(frames):
                own[k] = (frames, model.states[k].log_likelihood(frames))
        candidates = []  # (gain, a, b, pooled mixture), in search order
        ids = list(own)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1 :]:
                try:
                    gain, merged = merge_gain(model.states[a], *own[a], model.states[b], *own[b])
                except ValueError as exc:
                    skipped_merge_pairs.append({"round": round_idx, "pair": [a, b], "reason": str(exc)})
                    continue
                candidates.append((gain, a, b, merged))
        ranked = sorted(candidates, key=lambda c: c[0], reverse=True)  # stable: the first of equal gains wins
        if not ranked or ranked[0][0] <= 0:
            stop_reason = "no_positive_merge_gain"
            continue
        gain, a, b, merged = ranked[0]
        runner_up = ranked[1][0] if len(ranked) > 1 else None
        merge_trace.append(
            {
                "pair": [a, b],
                "gain": gain,
                "runner_up": runner_up,
                "margin": None if runner_up is None else gain - runner_up,
                "states_after": model.n_states - 1,
            }
        )
        new_states = [merged if k == a else g for k, g in enumerate(model.states) if k != b]
        model = HmmModel(states=new_states, min_dur_frames=T)

    if n_speaker_states < cfg.n_speakers:  # states that lost all their frames took it below
        stop_reason = "below_target_states"
    names = [f"spk{k}" for k in range(n_speaker_states)]
    segs = _segments_from_labels(labels, frame_index, names)
    hyp = DiarizationHypothesis(segs)
    meta = {
        "final_states": model.n_states,
        "final_speaker_states": n_speaker_states,
        "target_speakers": cfg.n_speakers,
        "stop_reason": stop_reason,
        "min_dur_frames": T,
        "em_path_log_prob": em_history,
        "merge_trace": merge_trace,
        "skipped_merge_pairs": skipped_merge_pairs,
        "dropped_states": dropped_states,
        "no_sad_mode": X.speech_mask is not None,
        "config": asdict(cfg),
    }
    return hyp, meta
