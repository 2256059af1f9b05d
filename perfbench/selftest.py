"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs a shortened session of every workload through the benchmark's traced
loop: one untraced session and its output check, then one traced session.
Fails if a tracing hook does not resolve, if a hook never fires (it is
patched where the pipeline does not look the name up), if a traced output
differs by one byte from the untraced one, if an output fails its check,
if a hook is still installed afterwards, if a per-layer metric comes out
absent, or if the top-level spans exceed the session (``cli.self_s``, the
remainder, is negative). It also fails if the no-SAD session loses its
non-speech state or scores a DER of 1 or more, or if the workloads and per-layer metrics named in
BENCHMARK.json are not those defined here. Last, it fails if ``diarkit
score`` scores dominance-30min's reference against itself at anything but
exactly 0, on any of SELF_SCORE_SEEDS. Exits 0 when none of that happens.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import ROOT, import_cli, measure  # noqa: E402
from workloads import NOSAD_SEC, WORKLOADS, dominance_script, synthesize, write_reference  # noqa: E402

# Short enough for a quick test, long enough for every stage to run. The
# no-SAD session runs at full length: at 11.5 s and below it scores a DER
# above 1, a regime the workload is not meant to measure.
SHORT_SEC = {"acceptance-8k": 20.0, "nosad-mfcc91-16k": NOSAD_SEC, "dominance-30min": 600.0}
# Scripts of dominance-30min whose reference is scored against itself. The
# timed workload does not run this score: it is not exactly 0 on many seeds
# (see README.md, "Known program defect"), and a workload's operations must
# not fail for a reason the benchmark already knows.
SELF_SCORE_SEEDS = range(1, 11)


def declared_problems() -> list[str]:
    """BENCHMARK.json must name the workloads and per-layer metrics that
    workloads.py and tracing.py define, in the same order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != [(n, u) for n, u, _ in tracing.METRICS]:
        problems.append("BENCHMARK.json per_layer differs from tracing.METRICS")
    return problems


def self_score_problems(cli, tmp: Path) -> list[str]:
    """The reference scored against itself must come out exactly 0."""
    problems = []
    ref, scored = tmp / "self_ref.rttm", tmp / "self_score.json"
    for seed in SELF_SCORE_SEEDS:
        write_reference(ref, dominance_script(seed))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["score", "--ref", str(ref), "--hyp", str(ref), "--json", str(scored)])
        der = json.loads(scored.read_text())["der"] if code == 0 else None
        if der != 0.0:
            problems.append(f"dominance-30min seed {seed}: the reference scored against itself has DER {der!r}, not 0")
    return problems


def main() -> int:
    cli = import_cli()
    hooks, missing = tracing.resolve_hooks()
    problems = declared_problems() + [f"hook does not resolve: {name}" for name in missing]
    fired = set()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload, seconds in SHORT_SEC.items():
            inputs, out = Path(tmp) / workload, Path(tmp) / f"{workload}-out"
            out.mkdir()
            synthesize(workload, 21, inputs, duration=seconds)
            sessions, failures, tracers = measure(cli, workload, inputs, out, 0.0, trace=True)
            problems += [f"{workload}: {failure}" for failure in failures]
            if any(getattr(owner, attr) is not target for _, owner, attr, target, _ in hooks):
                problems.append(f"{workload}: hooks still installed after the traced session")
            spans, metrics = tracers[0].spans, tracers[0].metrics
            fired.update(span[0] for span in spans)
            absent = [name for name, value in metrics.items() if value is None]
            if absent:
                problems.append(f"{workload}: absent metrics: {', '.join(absent)}")
            if metrics["cli.self_s"] < 0:
                problems.append(f"{workload}: top-level spans exceed the session")
            if workload == "nosad-mfcc91-16k":
                meta = json.loads((out / "hyp.meta.jsonl").read_text())
                if meta["final_states"] == meta["final_speaker_states"]:
                    problems.append(f"{workload}: the diarizer lost its non-speech state")
                if sessions[0].get("der", 0.0) >= 1.0:
                    problems.append(f"{workload}: DER {sessions[0]['der']:.4f}, the degenerate short-session regime")
            shutil.rmtree(inputs)
            print(f"{workload}: {len(spans)} spans, traced session {metrics['trace.session_s']:.2f} s")
        problems += self_score_problems(cli, Path(tmp))
    with contextlib.suppress(OSError):
        work.rmdir()
    problems += [f"hook never fired: {h[0]}" for h in hooks if h[0] not in fired]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
