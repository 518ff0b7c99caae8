"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --result FILE --truth FILE
                                [--trace] [--in-process] [--spans FILE]

Set-up (importing keikit and building the inputs) ends at the monotonic
time reported as setup_end; run.py subtracts its spawn time.  The
timed phase runs every operation once, in order, each under a deadline;
an untraced pass also times measure.reference() between operations.
Output checks run after it.  The result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import keikit  # noqa: E402  (set-up starts here: the import is part of it)

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEED_EVERY_S = 0.05  # least time between two samples of the host's speed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DEADLINE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--in-process", action="store_true", dest="in_process")
    parser.add_argument("--spans")
    parser.add_argument("--truth", required=True,
                        help="file of independent graph verdicts, shared by the processes of a run")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="exit after set-up; only its end time is reported")
    args = parser.parse_args()

    measure.install_alarm()
    tracer = spans.Tracer() if args.trace else None
    originals = spans.install(tracer) if tracer else {}
    span = tracer.span if tracer else (lambda name: nullcontext())
    workdir = Path(args.workdir)
    deadline = workloads.DEADLINE_S[args.workload]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    with span("bench.setup"):
        if args.workload == "cli-tables":
            inputs = workloads.cli_commands(args.seed, workdir)
        elif args.workload == "reduce-exhaustive":
            inputs = workloads.exhaustive_pairs(args.seed)
        else:
            inputs = workloads.sampled_pairs(args.seed)
    setup_end = time.monotonic()
    setup_ref = measure.reference()
    truth = None
    if args.workload != "cli-tables":
        # After set-up, and in the first set-up-only process of a run, so
        # that no timed pass and no pass's peak RSS includes it.
        truth = workloads.stored_graph_iso(args.workload, inputs, Path(args.truth))
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_end": setup_end, "setup_ref": setup_ref}),
                                     encoding="utf-8")
        return 0

    encode = originals.get(spans.ENCODE, keikit.folding.encode_kei)
    cache_before = encode.cache_info() if hasattr(encode, "cache_info") else None
    rss: list[float] = []
    # Untraced passes sample the host's speed between operations.
    speed = None if tracer else measure.SpeedLog(SPEED_EVERY_S)
    t0 = time.perf_counter()
    with span(spans.GLUE):
        if args.workload == "cli-tables":
            outcomes, rss = workloads.run_cli_pass(inputs, deadline, workdir, env, args.in_process, speed)
        else:
            outcomes = workloads.run_reduce_pass(inputs, deadline, speed)
    wall = time.perf_counter() - t0 - (speed.spent if speed else 0.0)
    marks = speed.close(len(outcomes)) if speed else None
    cache_after = encode.cache_info() if cache_before is not None else None

    if args.workload == "cli-tables":
        problems = workloads.check_cli(inputs, outcomes)
        kinds = [cmd.kind for cmd in inputs]
    else:
        problems = workloads.check_reduce(inputs, outcomes, truth)
        kinds = []
        lines = workloads.verdict_lines(inputs, outcomes)
        (workdir / "verdicts.log").write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = {
        "setup_end": setup_end,
        "setup_ref": setup_ref,
        "wall_s": wall,
        "speed_marks": marks,
        "latency_s": [o.seconds for o in outcomes],
        "ok": [p is None for p in problems],
        "problems": [p for p in problems if p is not None][:10],
        "kinds": kinds,
        "child_rss_mb": rss,
        "deadline_s": deadline,
    }
    if tracer is not None:
        layers = spans.self_times(tracer.spans)
        hits = misses = 0
        if cache_after is not None:
            hits = cache_after.hits - cache_before.hits
            misses = cache_after.misses - cache_before.misses
        result["layers"] = layers
        result["encode_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        result["encode_hits"], result["encode_misses"] = hits, misses
        result["found"] = tracer.found
        result["classify_peak_mb"] = tracer.classify_peak_mb
        result["spans"] = len(tracer.spans)
        result["pass_self_sum_s"] = spans.subtree_self_sum(tracer.spans, spans.GLUE)
        if args.spans:
            spans.write_spans(tracer.spans, args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
