"""Tests of the benchmark itself: generators, statistics, failure
charging, span accounting and the benchmark definition.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from keikit import cli, iso  # noqa: E402
from keikit.iso import ReductionVerdict  # noqa: E402


def _cli_log(tmp_path: Path, args: list[str]) -> str:
    log = tmp_path / "cli.log"
    assert cli.main([*args, "--log", str(log)]) == 0
    return log.read_text(encoding="utf-8")


def _our_lines(pairs) -> str:
    outcomes = [measure.run_op(lambda p=p: iso.reduction_check(p.g, p.h, p.oracle_limit), 60.0)
                for p in pairs]
    return "\n".join(workloads.verdict_lines(pairs, outcomes)) + "\n"


def test_sampled_generator_reproduces_seed_7_stream(tmp_path, capsys):
    expected = _cli_log(tmp_path, ["reduce-test", "--mode", "sampled", "--n-max", "6",
                                   "--pairs", "200", "--seed", "7"])
    capsys.readouterr()
    assert _our_lines(workloads.sampled_stream(6, 200, 7)) == expected


def test_exhaustive_seed_0_reproduces_cli_order(tmp_path, capsys):
    expected = _cli_log(tmp_path, ["reduce-test", "--n-max", "3"])
    capsys.readouterr()
    pairs = [p for p in workloads.exhaustive_pairs(0) if p.g.n == 3]
    assert len(pairs) == 4096
    assert _our_lines(pairs) == expected


def test_other_seeds_relabel_but_keep_classes():
    plain = workloads.exhaustive_graphs(4, 0)
    relabelled = workloads.exhaustive_graphs(4, 5)
    assert len(plain) == len(relabelled) == 218
    assert plain != relabelled
    assert [workloads._canonical(g.adj) for g in plain] == [workloads._canonical(g.adj) for g in relabelled]
    assert workloads.exhaustive_graphs(4, 5) == relabelled


def test_cycle_family_is_not_isomorphic():
    for p in workloads.cycle_pairs(3):
        assert p.g.n == p.h.n
        assert sorted(p.g.out_degrees()) == sorted(p.h.out_degrees())
        assert not workloads._networkx_iso(p.g, p.h)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(list(range(100)))[0] == 90.0
    q, value, beyond = measure.tail_percentile(list(range(1000)))
    assert (q, value, beyond) == (99.0, 989, 10)
    assert measure.tail_percentile(list(range(999)))[0] == 90.0
    q, value, beyond = measure.tail_percentile(list(range(51620)))
    assert q == 99.9 and beyond >= 10
    assert measure.tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)


def test_fastest_blocks_takes_each_block_at_its_fastest():
    # Blocks, cut where the first pass reaches 0.1 s: [0, 1], [2], [3].
    passes = [[0.05, 0.05, 0.30, 0.02],
              [0.10, 0.10, 0.20, 0.02],
              [0.04, 0.05, 0.60, 0.01]]
    assert measure.fastest_blocks(passes, 0.1) == pytest.approx(0.09 + 0.20 + 0.01)
    assert measure.fastest_blocks(passes, 10.0) == pytest.approx(0.42)
    assert measure.fastest_blocks([[1.0, 2.0]], 0.1) == pytest.approx(3.0)


def test_latencies_scale_by_the_reference_around_them():
    ref = measure.REF_S
    # Samples before op 0, after op 1 and after op 2: ops 0 and 1 share one interval.
    marks = [(0, 2 * ref), (2, 3 * ref), (3, 4 * ref)]
    assert measure.scaled([2.0, 4.0, 6.0], marks) == pytest.approx([1.0, 2.0, 2.0])


def test_speed_log_brackets_every_operation():
    speed = measure.SpeedLog(0.0)
    for done in range(1, 4):
        speed.after(done)
    marks = speed.close(3)
    assert [done for done, _ in marks] == [0, 1, 2, 3]
    assert all(ref > 0 for _, ref in marks) and speed.spent > 0
    sparse = measure.SpeedLog(3600.0)
    sparse.after(1)
    assert [done for done, _ in sparse.close(5)] == [0, 5]


def test_failures_are_charged_at_the_deadline():
    measure.install_alarm()
    slow = measure.run_op(lambda: time.sleep(5), 0.05)
    assert slow.error.startswith("timeout")
    assert slow.seconds < 1.0

    def boom():
        raise RuntimeError("broken")

    broken = measure.run_op(boom, 1.0)
    assert broken.error == "RuntimeError: broken"
    fine = measure.run_op(lambda: 42, 1.0)
    assert fine.value == 42 and fine.error is None
    assert measure.charged([(0.01, True), (0.02, False)], 2.0) == [0.01, 2.0]


def test_wrong_verdicts_fail_the_check():
    pairs = workloads.cycle_pairs(0)[:2]
    truth = workloads.expected_graph_iso("reduce-sampled", pairs)
    right = [measure.Outcome(0.1, value=ReductionVerdict(False, False, True))] * 2
    assert workloads.check_reduce(pairs, right, truth) == [None, None]
    wrong = [measure.Outcome(0.1, value=ReductionVerdict(True, True, True)),
             measure.Outcome(0.1, value=ReductionVerdict(False, True, False))]
    problems = workloads.check_reduce(pairs, wrong, truth)
    assert all(problems)


def test_child_peak_rss_is_per_child():
    measure.install_alarm()
    big = "import numpy; a = numpy.ones(40 * 2**20 // 8 * 4); a.sum()"
    first = measure.run_child([sys.executable, "-c", big], 60, None, None)
    second = measure.run_child([sys.executable, "-c", "pass"], 60, None, None)
    assert first.returncode == second.returncode == 0
    assert first.maxrss_mb > 150 > second.maxrss_mb
    stuck = measure.run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5, None, None)
    assert stuck.returncode is None and stuck.seconds < 5


def test_self_time_subtracts_direct_children():
    recorded = [
        (2, 1, "grandchild", 3.0, 4.0),
        (1, 0, "child", 2.0, 5.0),
        (3, 0, "child", 6.0, 7.0),
        (0, -1, "root", 0.0, 10.0),
        (4, -1, "other", 11.0, 12.0),
    ]
    times = spans.self_times(recorded)
    assert times["root"]["self_s"] == pytest.approx(6.0)
    assert times["child"] == {"calls": 2, "self_s": pytest.approx(3.0), "max_s": pytest.approx(3.0)}
    assert times["grandchild"]["self_s"] == pytest.approx(1.0)
    assert spans.subtree_self_sum(recorded, "root") == pytest.approx(10.0)


def test_tracer_nests_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    with tracer.span("root"):
        outer()
    times = spans.self_times(tracer.spans)
    assert times["inner"]["calls"] == 2
    assert times["inner"]["self_s"] >= 0.02
    root_duration = next(e - s for _, _, n, s, e in tracer.spans if n == "root")
    assert spans.subtree_self_sum(tracer.spans, "root") == pytest.approx(root_duration)


def test_install_rebinds_every_importer(tmp_path):
    table = tmp_path / "k.tbl"
    table.write_text(workloads._table_text(workloads.dihedral_kei(5)), encoding="utf-8")
    code = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import keikit, spans
tracer = spans.Tracer()
spans.install(tracer)
from keikit import cli, digraph, iso
g = digraph.random_digraph(4, 0.5, 1)
iso.reduction_check(g, g.relabel([1, 2, 3, 0]))
cli.main(["detect", {str(table)!r}])
names = {{sid: name for sid, _, name, _, _ in tracer.spans}}
parents = {{name: names.get(parent) for _, parent, name, _, _ in tracer.spans}}
print(json.dumps({{"parents": parents, "found": tracer.found}}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    parents = result["parents"]
    assert parents["folding.encode_kei"] == "iso.reduction_check"
    assert parents["iso.magma_iso_search"] == "iso.reduction_check"
    assert parents["magma.classify"] == "folding.detect_folded"
    assert parents["folding.detect_folded"] == "cli.main"
    assert parents["magma.check_axiom_ld"] == "magma.classify"
    assert parents["textio.read_row_block"] == "magma.Magma.from_text"
    assert result["found"] == 1


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-tables", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
