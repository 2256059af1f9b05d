"""Outside-in tracing of one diarkit session.

The benchmark replaces public diarkit functions with timing wrappers for
the length of one traced session and restores them afterwards. Each name
is patched where the pipeline looks it up at call time: ``cli.diarize`` is
the name ``cli`` bound with ``from .diarizer import diarize``, and
``Gmm.component_log_densities`` is a method on the class. Nothing inside
the program changes.

A span is ``[name, start, end, parent index, info]``; ``info`` holds the
count a hook derives from its arguments or result (rows, cells, samples).
Spans stay in memory and are reduced to per-layer metrics after the
session.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(X):
    return len(X) if getattr(X, "ndim", 2) == 2 else 1


def _resampled(a, k, r):
    """Output samples of a real rate change; a passthrough does no work."""
    return 0 if _arg(a, k, 1, "in_rate") == _arg(a, k, 2, "out_rate") else len(r)


def _viterbi_cells(a, k, r):
    n_frames, n_states = _arg(a, k, 0, "log_emissions").shape
    return n_frames * n_states * int(_arg(a, k, 1, "min_dur_frames"))


def _wpe_work(a, k, r):
    segments = _arg(a, k, 1, "segments")
    rate = _arg(a, k, 2, "sample_rate", 8000)
    return len(segments), sum(int(round(s[1] * rate)) - int(round(s[0] * rate)) for s in segments)


# (span name, module, attribute path, count taken from (args, kwargs, result))
HOOKS = (
    ("audio_io.load_session", "diarkit.audio_io", "load_session", None),
    ("audio_io.resample", "diarkit.audio_io", "resample", _resampled),
    ("features.mfcc", "diarkit.features", "mfcc", lambda a, k, r: r.n_frames),
    ("features.splice", "diarkit.features", "splice", None),
    ("dae.pretrain_stack", "diarkit.dae", "pretrain_stack", None),
    ("dae.loss_and_grads", "diarkit.dae", "loss_and_grads", lambda a, k, r: _rows(_arg(a, k, 3, "x_in"))),
    ("dae.corrupt", "diarkit.dae", "corrupt", None),
    ("dae.bottleneck", "diarkit.dae", "bottleneck", None),
    ("gmm.component_log_densities", "diarkit.gmm", "Gmm.component_log_densities", lambda a, k, r: _rows(_arg(a, k, 1, "X"))),
    ("gmm.em_fit", "diarkit.gmm", "em_fit", None),
    ("gmm.em_refine", "diarkit.gmm", "em_refine", None),
    ("diarizer.diarize", "diarkit.cli", "diarize", lambda a, k, r: len(r[1]["merge_trace"])),
    ("diarizer.segmental_em", "diarkit.diarizer", "segmental_em", None),
    ("diarizer.decode", "diarkit.diarizer", "HmmModel.decode", None),
    ("diarizer.viterbi_path", "diarkit.diarizer", "viterbi_path", _viterbi_cells),
    ("wpe.segment_energy", "diarkit.wpe", "segment_energy", _wpe_work),
    ("dominance.dominance_report", "diarkit.dominance", "dominance_report", None),
    ("scoring.score_der", "diarkit.scoring", "score_der", None),
)

# A loss_and_grads call on more rows than one mini-batch is a per-epoch
# full pass over the training set; the CLI trains with this batch size.
BATCH_ROWS = 256


def _ratio(a, b):
    return a / b if b else 0.0


# Every per-layer metric, defined once: (metric, unit, reducer). A reducer
# reads one session's spans through a _View. Times are inclusive unless
# named "self". A metric whose reducer asks about a span whose hook did not
# resolve is reported as absent.
METRICS = (
    ("audio_io.load_s", "s", lambda v: v.seconds("audio_io.load_session")),
    ("audio_io.resample_s", "s", lambda v: v.seconds("audio_io.resample")),
    ("audio_io.resample_out_samples", "count", lambda v: v.count("audio_io.resample")),
    ("features.mfcc_s", "s", lambda v: v.seconds("features.mfcc")),
    ("features.splice_s", "s", lambda v: v.seconds("features.splice")),
    ("features.frames", "count", lambda v: v.count("features.mfcc")),
    ("dae.pretrain_s", "s", lambda v: v.seconds("dae.pretrain_stack")),
    ("dae.step_calls", "count", lambda v: v.calls("dae.loss_and_grads", full_pass=False)),
    ("dae.step_s", "s", lambda v: v.seconds("dae.loss_and_grads", full_pass=False)),
    ("dae.full_pass_calls", "count", lambda v: v.calls("dae.loss_and_grads", full_pass=True)),
    ("dae.full_pass_s", "s", lambda v: v.seconds("dae.loss_and_grads", full_pass=True)),
    ("dae.corrupt_s", "s", lambda v: v.seconds("dae.corrupt")),
    ("dae.encode_s", "s", lambda v: v.seconds("dae.bottleneck")),
    ("gmm.log_density_s", "s", lambda v: v.seconds("gmm.component_log_densities")),
    ("gmm.log_density_calls", "count", lambda v: v.calls("gmm.component_log_densities")),
    ("gmm.log_density_rows", "count", lambda v: v.count("gmm.component_log_densities")),
    ("gmm.em_fit_s", "s", lambda v: v.seconds("gmm.em_fit")),
    ("gmm.refine_align_s", "s", lambda v: v.seconds("gmm.em_refine", parent="diarizer.segmental_em")),
    ("gmm.refine_align_calls", "count", lambda v: v.calls("gmm.em_refine", parent="diarizer.segmental_em")),
    ("gmm.refine_merge_s", "s", lambda v: v.seconds("gmm.em_refine", parent="diarizer.diarize")),
    ("gmm.refine_merge_calls", "count", lambda v: v.calls("gmm.em_refine", parent="diarizer.diarize")),
    ("diarizer.diarize_s", "s", lambda v: v.seconds("diarizer.diarize")),
    ("diarizer.viterbi_s", "s", lambda v: v.seconds("diarizer.viterbi_path")),
    ("diarizer.viterbi_calls", "count", lambda v: v.calls("diarizer.viterbi_path")),
    ("diarizer.viterbi_cells", "count", lambda v: v.count("diarizer.viterbi_path")),
    ("diarizer.segmental_em_s", "s", lambda v: v.seconds("diarizer.segmental_em")),
    ("diarizer.merge_search_s", "s", lambda v: v.self_seconds("diarizer.diarize")),
    ("diarizer.decodes", "count", lambda v: v.calls("diarizer.decode")),
    ("diarizer.merges", "count", lambda v: v.count("diarizer.diarize")),
    (
        "diarizer.merge_yield",
        "ratio",
        lambda v: _ratio(v.count("diarizer.diarize"), v.calls("gmm.em_refine", parent="diarizer.diarize")),
    ),
    ("wpe.segment_energy_s", "s", lambda v: v.seconds("wpe.segment_energy")),
    ("wpe.segments", "count", lambda v: v.count("wpe.segment_energy", part=0)),
    ("wpe.samples", "count", lambda v: v.count("wpe.segment_energy", part=1)),
    ("dominance.report_s", "s", lambda v: v.seconds("dominance.dominance_report")),
    ("scoring.score_der_s", "s", lambda v: v.seconds("scoring.score_der")),
    ("cli.self_s", "s", lambda v: v.session_s - v.top_level_seconds()),
    ("trace.session_s", "s", lambda v: v.session_s),
    ("trace.overhead_s", "s", lambda v: v.session_s - v.untraced_s),
)


class Tracer:
    """Span recorder for one session; hooks append to ``spans``, and
    ``finish`` reduces them to ``metrics``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.metrics: dict[str, float | None] = {}

    def finish(self, session_s: float, untraced_s: float, missing=()):
        self.metrics = layer_metrics(self.spans, session_s, untraced_s, missing)

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


def resolve_hooks():
    """(resolved hooks, names of hooks whose target no longer exists)."""
    found, missing = [], []
    for span, module, path, info in HOOKS:
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        found.append((span, owner, attr, target, info))
    return found, missing


@contextmanager
def traced(tracer: Tracer, hooks):
    """Install the wrappers for the body of the block, then restore."""
    try:
        for span, owner, attr, target, info in hooks:
            setattr(owner, attr, tracer.wrap(span, target, info))
        yield tracer
    finally:
        for _, owner, attr, target, _ in hooks:
            setattr(owner, attr, target)


class _View:
    """Queries over one session's spans. Remembers every span name it is
    asked about, so a metric that depends on a missing hook can be told
    apart from one that is 0."""

    def __init__(self, spans, session_s: float, untraced_s: float):
        self.spans, self.session_s, self.untraced_s = spans, session_s, untraced_s
        self.asked: set[str] = set()
        self._by_name: dict[str, list[int]] = {}
        self._child_time = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self._by_name.setdefault(name, []).append(i)
            if parent is not None:
                self._child_time[parent] += end - start

    def _select(self, name, parent=None, full_pass=None):
        self.asked.add(name)
        if parent is not None:
            self.asked.add(parent)
        picked = []
        for i in self._by_name.get(name, ()):
            span = self.spans[i]
            if parent is not None and (span[3] is None or self.spans[span[3]][0] != parent):
                continue
            if full_pass is not None and ((span[4] or 0) > BATCH_ROWS) != full_pass:
                continue
            picked.append(span)
        return picked

    def seconds(self, name, **where) -> float:
        return sum(end - start for _, start, end, _, _ in self._select(name, **where))

    def calls(self, name, **where) -> int:
        return len(self._select(name, **where))

    def count(self, name, part=None):
        """Sum of the counts the hook derived; a call that raised has none."""
        counts = [s[4] for s in self._select(name) if s[4] is not None]
        return sum(c if part is None else c[part] for c in counts)

    def self_seconds(self, name) -> float:
        self.asked.add(name)
        return sum(
            self.spans[i][2] - self.spans[i][1] - self._child_time[i] for i in self._by_name.get(name, ())
        )

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)


def layer_metrics(spans, session_s: float, untraced_s: float, missing=()) -> dict[str, float | None]:
    """Reduce one traced session's spans to the per-layer metrics.
    ``session_s`` is the traced session's wall time, ``untraced_s`` that of
    the untraced session run just before it, ``missing`` the hooks that did
    not resolve; a metric that needs one of them is None."""
    missing = set(missing)
    metrics = {}
    for name, _, reducer in METRICS:
        view = _View(spans, session_s, untraced_s)
        value = reducer(view)
        metrics[name] = None if view.asked & missing else value
    return metrics
