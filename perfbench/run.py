"""diarkit benchmark: whole sessions through ``diarkit.cli.main`` in one
process, as a closed loop (one client, sessions back to back).

    python3 perfbench/run.py --workload acceptance-8k --seed 1 --seconds 20 --trace 0

Set-up synthesizes the workload's inputs in a child process that times
its own imports, synthesis and writes; the first child's files are the
inputs of every session. Sessions run until ``--seconds`` of session time
have passed (the session in flight finishes), and at least MIN_SESSIONS. Set-up is repeated,
SETUP_BURST children at a time, before the first session and after each
one, and ``setup_s`` is the median of all the children: set-up takes
about half a second, and bursts spread over the run see the same changes
in machine speed as the sessions do. The children also keep the
synthesizer's memory out of this process's ``peak_rss_mb``. Each
session's outputs are checked; a session that raises, exits non-zero or
fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced sessions, checks that tracing leaves every output
byte-identical, and reports the per-layer metrics of the traced ones.
Values are medians over the run's sessions. The last line of standard
output is the result as JSON; the line before it is the machine
fingerprint. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, CheckFailed, check_session, session_commands, session_outputs  # noqa: E402

SETUP_BURST = 2
# A run's medians are over at least this many sessions, however long they take.
MIN_SESSIONS = 2
SETUP_TIMEOUT_S = 120
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetUp:
    """The set-up children of one run. The first writes the inputs that
    every session reads; each later one must write byte-identical files
    (same seed, same inputs), which are then deleted. ``times`` holds each
    child's own measure, from its first import to its last write, so
    interpreter start-up is not counted."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.times: list[float] = []
        self.inputs = self._child()
        self._digest = _digest(self.inputs)

    def _child(self) -> Path:
        out = self.work / f"inputs{len(self.times)}"
        child = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), self.workload, str(self.seed), str(out)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.times.append(float(child.stdout.split()[-1]))
        return out

    def repeat(self, n: int = SETUP_BURST):
        for _ in range(n):
            out = self._child()
            if _digest(out) != self._digest:
                raise RuntimeError(f"set-up is not deterministic: {out.name} differs from {self.inputs.name}")
            shutil.rmtree(out)


def _digest(directory: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_session(cli, workload: str, inputs: Path, out: Path) -> tuple[float, float, str | None]:
    """One session: (wall seconds, CPU seconds, failure or None)."""
    for path in session_outputs(workload, out):
        path.unlink(missing_ok=True)
    captured = io.StringIO()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    failure = None
    try:
        with contextlib.redirect_stdout(captured):
            for argv in session_commands(workload, inputs, out):
                code = cli.main(argv)
                if code != 0:
                    failure = f"`{argv[0]}` exited with code {code}"
                    break
    except Exception as exc:  # a crash fails this session, not the run
        failure = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - cpu0, failure


def _cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _digest(SRC / "diarkit", "*.py"),
    }


def _blas_threads(numpy) -> int | None:
    """Threads OpenBLAS actually uses, read from the library numpy loaded."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read from .git, so
    nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_cli():
    if not (SRC / "diarkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no diarkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from diarkit import cli

    if Path(cli.__file__).resolve().parent != SRC / "diarkit":
        raise SystemExit(f"error: imported diarkit from {cli.__file__}, not from {SRC}")
    return cli


def measure(cli, workload: str, inputs: Path, out: Path, seconds: float, trace: bool, between=None):
    """Run sessions until ``seconds`` have passed and MIN_SESSIONS have
    run. With ``trace``, each session is followed by a traced one. ``between``, if given, is called
    after each session (or traced pair), and its time is not counted
    toward ``seconds``. Returns (per-session records, failures, the tracer
    of each traced session)."""
    hooks, missing = tracing.resolve_hooks() if trace else ([], [])
    sessions, failures, tracers = [], [], []
    start = time.perf_counter()
    while len(sessions) < MIN_SESSIONS or time.perf_counter() - start < seconds:
        wall, cpu, failure = run_session(cli, workload, inputs, out)
        record = {"session_s": wall, "cpu_s": cpu}
        if failure is None:
            try:
                record["der"] = check_session(workload, inputs, out)
            except CheckFailed as exc:
                failure = f"output check failed: {exc}"
        sessions.append(record)
        if failure:
            failures.append(failure)
        print(f"session {len(sessions)}: {wall:.3f} s wall, {cpu:.3f} s CPU, {failure or 'ok'}", file=sys.stderr)
        if not trace:
            start += _pause(between)
            continue
        untraced = [p.read_bytes() if p.exists() else None for p in session_outputs(workload, out)]
        tracer = tracing.Tracer()
        with tracing.traced(tracer, hooks):
            t_wall, t_cpu, t_failure = run_session(cli, workload, inputs, out)
        traced = [p.read_bytes() if p.exists() else None for p in session_outputs(workload, out)]
        if t_failure is None and traced != untraced:
            t_failure = "traced session's outputs differ from the untraced session's"
        sessions.append({"session_s": t_wall, "cpu_s": t_cpu})
        if t_failure:
            failures.append(f"traced: {t_failure}")
        print(f"session {len(sessions)} (traced): {t_wall:.3f} s wall, {t_failure or 'ok'}", file=sys.stderr)
        tracer.finish(t_wall, untraced_s=wall, missing=missing)
        tracers.append(tracer)
        start += _pause(between)
    return sessions, failures, tracers


def _pause(between) -> float:
    """Call ``between`` (if any); return the seconds it took."""
    if between is None:
        return 0.0
    t0 = time.perf_counter()
    between()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        setup = SetUp(args.workload, args.seed, work)
        setup.repeat(SETUP_BURST - 1)
        out = work / "out"
        out.mkdir()
        sessions, failures, tracers = measure(
            cli, args.workload, setup.inputs, out, args.seconds, trace=bool(args.trace), between=setup.repeat
        )
        print(f"set-up: {', '.join(f'{t:.3f}' for t in setup.times)} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def med(values):
        return statistics.median(values) if values else None

    if args.trace:
        metrics = {}
        for name, unit, _ in tracing.METRICS:
            values = [t.metrics[name] for t in tracers]
            metrics[name] = {"value": None if None in values else med(values), "unit": unit}
        missing = tracing.resolve_hooks()[1]
        if missing:
            absent = sorted(name for name, m in metrics.items() if m["value"] is None)
            print(f"trace: hooks not found: {', '.join(missing)}; absent metrics: {', '.join(absent)}")
    else:
        ders = [s["der"] for s in sessions if "der" in s]
        if len(set(ders)) > 1:
            print(f"warning: DER differs between sessions of one run: {sorted(set(ders))}", file=sys.stderr)
        metrics = {
            "session_s": {"value": med([s["session_s"] for s in sessions]), "unit": "s"},
            "cpu_s": {"value": med([s["cpu_s"] for s in sessions]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "der": {"value": med(ders), "unit": "fraction"},
            "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
        }
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    result = {"correct": not failures, "attempted": len(sessions), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
