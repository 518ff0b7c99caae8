"""keikit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the run repeats passes
over the seeded inputs, each in a fresh worker process, while another
pass still fits in S seconds, and prints the end-to-end metrics, with
times scaled to reference speed (see measure.REF_S).  With
--trace 1 it alternates untraced and traced passes the same way and
prints per-layer metrics and the tracing overhead.  The last line of stdout is one JSON
object; the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reduce-exhaustive", "reduce-sampled", "cli-tables")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 7  # fewest set-ups whose median gives setup_s
BLOCK_S = 0.05  # wall_s takes each block of this much work at its fastest

# Gated metrics; times are at reference speed (see measure.REF_S).
# Per-operation latencies are printed but not gated: the
# median pair sits between clusters of pair types (about 25 us and 40 us
# at n=4) and moves by up to 70 % between runs on a loaded machine.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = (
    "iso.reduction_check",
    "iso.magma_iso_search",
    "iso.magma_iso_bruteforce",
    "iso.is_magma_isomorphism",
    "digraph.find_graph_isomorphism",
    "digraph.is_graph_isomorphism",
    "digraph.enumerate_digraphs",
    "folding.encode_kei",
    "folding.derive_dynamical_quandle",
    "folding.detect_folded",
    "folding.decode_graph",
    "textio.read_row_block",
    "magma.Magma.from_text",
    "magma.classify",
    "magma.check_axiom_ld",
    "magma.check_axiom_unique_left_division",
    "magma.check_axiom_idempotent",
    "magma.check_axiom_involutory",
    "groups.FiniteGroup",
    "sigma.check_sigma_identities",
    "sigma.check_sigma_implies_ld",
    "cli.main",
)

PER_LAYER = {f"{f}.{stat}": unit for f in LAYER_FUNCTIONS for stat, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "iso.magma_iso_search.max_ms": "ms",
    "iso.magma_iso_search.found": "count",
    "folding.encode_kei.hit_ratio": "ratio",
    "magma.classify.peak_mb": "MB",
    "bench.glue.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
})

# Expected rows of `keikit reduce-test --log` for the seeds that
# reproduce the CLI's own streams.
CLI_LOGS = {
    ("reduce-exhaustive", 0): [["reduce-test", "--n-max", "3"], ["reduce-test", "--n-max", "4"]],
    ("reduce-sampled", 7): [["reduce-test", "--mode", "sampled", "--n-max", "6", "--pairs", "8000",
                             "--seed", "7"]],
}


class Run:
    """Temporary files and the time budget of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=scratch))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.passes = 0
        # Workers and their children share one CPU, so that the reference
        # loop sampled between operations runs where the operations ran.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, trace: bool = False, in_process: bool = False, spans: Path | None = None,
               setup_only: bool = False) -> dict:
        """Run one pass in a fresh worker; add its set-up time and peak RSS."""
        self.passes += 1
        workdir = self.tmp / f"pass{self.passes}"
        workdir.mkdir()
        result_path = workdir / "result.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", str(workdir), "--result", str(result_path),
                "--truth", str(self.tmp / "truth.json")]
        argv += ["--trace"] * trace + ["--in-process"] * in_process + ["--setup-only"] * setup_only
        if spans is not None:
            argv += ["--spans", str(spans)]
        with open(workdir / "worker.err", "wb") as err:
            child = measure.run_child(argv, max(1.0, self.remaining()), subprocess.DEVNULL, err,
                                      env=self.env)
        if child.returncode != 0:
            detail = (workdir / "worker.err").read_text(errors="replace").strip().splitlines()[-1:]
            raise WorkerFailed(f"worker exited with {child.returncode}: {' '.join(detail)}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_raw_s"] = result["setup_end"] - child.spawned_at
        result["setup_s"] = result["setup_raw_s"] * measure.REF_S / result["setup_ref"]
        result["worker_rss_mb"] = child.maxrss_mb
        result["worker_s"] = child.seconds
        result["workdir"] = str(workdir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass


class WorkerFailed(Exception):
    pass


def charged(result: dict) -> list[float]:
    """Latencies at reference speed, failed operations at the deadline."""
    latencies = measure.scaled(result["latency_s"], result["speed_marks"])
    return measure.charged(list(zip(latencies, result["ok"])), result["deadline_s"])


def cli_log_problems(run: Run, first: dict) -> list[str]:
    """For seeds that reproduce a CLI stream, compare verdict lines byte for byte."""
    argvs = CLI_LOGS.get((run.workload, run.seed))
    if not argvs:
        return []
    expected = ""
    for i, args in enumerate(argvs):
        log = run.tmp / f"cli{i}.log"
        argv = [sys.executable, "-c", "import sys; from keikit.cli import entry; sys.exit(entry())",
                *args, "--log", str(log)]
        child = measure.run_child(argv, max(1.0, run.remaining()), subprocess.DEVNULL,
                                  subprocess.DEVNULL, env=run.env)
        if child.returncode != 0:
            return [f"reduce-test {' '.join(args)} exited with {child.returncode}"]
        expected += log.read_text(encoding="utf-8")
    ours = (Path(first["workdir"]) / "verdicts.log").read_text(encoding="utf-8")
    ours = "".join(ours.splitlines(keepends=True)[: expected.count("\n")])
    return [] if ours == expected else ["verdict lines differ from reduce-test --log"]


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str], list[str], list[dict]]:
    """Passes in a closed loop, each after a set-up-only process, while
    another fits in the time; then set-ups up to SETUP_SAMPLES."""
    results: list[dict] = []
    setups: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        setups.append(run.worker(setup_only=True))
        results.append(run.worker())
        setups.append(results[-1])
        rounds.append(time.monotonic() - t0)
        typical = statistics.median(rounds)
        if time.monotonic() - run.started + typical > seconds or run.remaining() < 2 * typical:
            break
    while len(setups) < SETUP_SAMPLES and run.remaining() > 10:
        setups.append(run.worker(setup_only=True))
    latencies = [charged(r) for r in results]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": measure.fastest_blocks(latencies, BLOCK_S),
    }
    if run.workload == "cli-tables":
        metrics["peak_rss_mb"] = statistics.median(max(r["child_rss_mb"]) for r in results)
    else:
        metrics["peak_rss_mb"] = statistics.median(r["worker_rss_mb"] for r in results)
    # Each operation's latency is its median over the passes.
    per_op = measure.per_op_median(latencies)
    attempted = sum(len(r["ok"]) for r in results)
    failed = sum(r["ok"].count(False) for r in results)
    refs = [ref for r in results for _, ref in r["speed_marks"]]
    notes = [f"times at reference speed: the host ran the reference loop in {1000 * statistics.median(refs):.4g} ms "
             f"(median of {len(refs)}), the scale assumes {1000 * measure.REF_S:g} ms",
             f"setup_s: median of {len(setups)} fresh processes; as measured "
             f"{statistics.median(r['setup_raw_s'] for r in setups):.6g} s",
             f"wall_s: blocks of {BLOCK_S} s at their fastest over {len(results)} passes of "
             f"{len(per_op)} operations; median pass as measured "
             f"{statistics.median(r['wall_s'] for r in results):.6g} s",
             f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted})"]
    if run.workload == "cli-tables":
        notes.append(f"commands_per_s: {len(per_op) / metrics['wall_s']:.6g} 1/s")
        kinds = results[0]["kinds"]
        for kind in ("check", "fold", "iso", "sigma"):
            times = [t for t, k in zip(per_op, kinds) if k == kind]
            notes.append(f"cmd_{kind}_ms: {1000 * sum(times) / len(times):.6g} ms "
                         f"(mean of {len(times)} commands)")
    else:
        q, value, beyond = measure.tail_percentile(per_op)
        notes += [f"pairs_per_s: {len(per_op) / metrics['wall_s']:.6g} 1/s",
                  f"pair_p50_ms: {1000 * statistics.median(per_op):.6g} ms ({len(per_op)} pairs)",
                  f"pair_tail_ms: {1000 * value:.6g} ms (p{q:g} of {len(per_op)} pairs, {beyond} beyond it)"]
    problems = cli_log_problems(run, results[0]) + [p for r in results for p in r["problems"]]
    return metrics, notes, problems, results


def layer_metrics(traced: dict) -> dict[str, float]:
    layers = traced["layers"]
    metrics: dict[str, float] = {}
    for f in LAYER_FUNCTIONS:
        entry = layers.get(f, {"calls": 0, "self_s": 0.0})
        metrics[f"{f}.calls"] = entry["calls"]
        metrics[f"{f}.self_s"] = entry["self_s"]
    search = layers.get("iso.magma_iso_search", {"max_s": 0.0})
    metrics["iso.magma_iso_search.max_ms"] = 1000 * search["max_s"]
    metrics["iso.magma_iso_search.found"] = traced["found"]
    metrics["folding.encode_kei.hit_ratio"] = traced["encode_hit_ratio"]
    metrics["magma.classify.peak_mb"] = traced["classify_peak_mb"]
    metrics["bench.glue.self_s"] = layers["bench.pass"]["self_s"]
    metrics["trace.spans"] = traced["spans"]
    return metrics


def measure_layers(run: Run, seconds: float) -> tuple[dict, list[str], list[str], list[dict]]:
    """Untraced and traced passes in turn while another pair fits in the
    time; each layer metric is the low median over the traced passes."""
    in_process = run.workload == "cli-tables"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{run.workload}-seed{run.seed}-spans.tsv.gz"
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        plain.append(run.worker(in_process=in_process))
        traced.append(run.worker(trace=True, in_process=in_process, spans=spans))
        rounds.append(time.monotonic() - t0)
        typical = statistics.median(rounds)
        if time.monotonic() - run.started + typical > seconds or run.remaining() < 2 * typical:
            break
    per_pass = [layer_metrics(t) for t in traced]
    metrics = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1
    last = traced[-1]
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes"
             f"{', all in process' if in_process else ''}; median walls {traced_wall:.4f} s "
             f"and {plain_wall:.4f} s",
             f"self times under bench.pass in the last traced pass sum to {last['pass_self_sum_s']:.4f} s; "
             f"its wall {last['wall_s']:.4f} s",
             f"encode_kei cache in the last traced pass: {last['encode_hits']} hits, "
             f"{last['encode_misses']} misses",
             f"spans of the last traced pass written to {spans.relative_to(ROOT)}"]
    summary = out_dir / f"{run.workload}-seed{run.seed}-layers.json"
    summary.write_text(json.dumps({"metrics": metrics, "notes": notes}, indent=1), encoding="utf-8")
    problems = [p for r in plain + traced for p in r["problems"]]
    return metrics, notes, problems, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "keikit" / "__init__.py").is_file():
        print(f"error: no keikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure.install_alarm()
    run = Run(args.workload, args.seed)
    try:
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            metrics, notes, problems, results = measure_layers(run, args.seconds)
            units = PER_LAYER
        else:
            metrics, notes, problems, results = measure_end_to_end(run, args.seconds)
            units = END_TO_END
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    attempted = sum(len(r["ok"]) for r in results)
    failed = sum(r["ok"].count(False) for r in results)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:14.6g} {units[name]}")
    for note in notes:
        print(f"  note: {note}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
