"""Seeded inputs, one pass over them, and the checks of every output.

Three workloads stress different modules of keikit:

* reduce-exhaustive: the pair streams of `keikit reduce-test --n-max 3`
  and `--n-max 4`, decided in process by iso.reduction_check.  Tiny keis
  recur hundreds of times, so per-call overhead, the encode_kei cache,
  graph search and the brute-force oracle do the work.
* reduce-sampled: fresh pairs from the `reduce-test --mode sampled` RNG
  call order, then the 1-WL-equivalent family C_n vs 2C_{n/2}, where kei
  search backtracks.  Nearly every encode_kei call misses the cache.
* cli-tables: the `keikit` command run as a subprocess on large tables
  written at set-up: parsing, Magma validation, classify's n^3 arrays,
  refinement at large order, the sigma triple loop, interpreter start-up.

Every function here is deterministic in the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from measure import Outcome, SpeedLog, run_child, run_op

# Sampled traffic runs at n=6 (kei order 12).  At n=12 the same stream
# sends 1-2 % of pairs into kei-search blowups of 2 s to 87 s, which a
# run can neither finish nor measure steadily; the cycle family below
# carries the search blowup instead, deterministically.
SAMPLED_N = 6
SAMPLED_PAIRS = 8000
CYCLE_NATURAL = (8, 10, 12, 14, 16)
CYCLE_RELABELLED_N = 8
CYCLE_RELABELLED_COPIES = 16
ORACLE_LIMIT = 6  # the reduce-test default: brute force up to kei order 6

DEADLINE_S = {"reduce-exhaustive": 2.0, "reduce-sampled": 5.0, "cli-tables": 30.0}


# ---------------------------------------------------------------- reduce


@dataclass
class Pair:
    g: object
    h: object
    oracle_limit: int
    relabelled: bool  # h is a relabelled copy of g, so both verdicts must be 1


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def exhaustive_graphs(n: int, seed: int) -> list:
    """The graphs `reduce-test --n-max n` pairs up, in its order.

    Seed 0 keeps the CLI's labelling; other seeds relabel each graph.
    """
    from keikit import digraph as dg

    graphs = list(dg.enumerate_digraphs(n, dedupe=n >= 4))
    if seed:
        rng = random.Random(seed)
        graphs = [g.relabel(dg.Bijection(tuple(_shuffled(rng, n)))) for g in graphs]
    return graphs


def exhaustive_pairs(seed: int) -> list[Pair]:
    pairs = []
    for n in (3, 4):
        graphs = exhaustive_graphs(n, seed)
        pairs.extend(Pair(g, h, ORACLE_LIMIT, False) for g in graphs for h in graphs)
    return pairs


def sampled_stream(n: int, count: int, seed: int) -> list[Pair]:
    """`reduce-test --mode sampled` pairs, with the CLI's RNG call order."""
    from keikit import digraph as dg

    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        g = dg.random_digraph(n, rng.random(), rng.randrange(2 ** 30))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append(Pair(g, g.relabel(dg.Bijection(tuple(perm))), ORACLE_LIMIT, True))
        else:
            h = dg.random_digraph(n, rng.random(), rng.randrange(2 ** 30))
            pairs.append(Pair(g, h, ORACLE_LIMIT, False))
    return pairs


def cycles(n: int, k: int):
    """k disjoint directed cycles of length n // k on n vertices."""
    from keikit import digraph as dg

    m = n // k
    return dg.Digraph(n, [(c * m + i, c * m + (i + 1) % m) for c in range(k) for i in range(m)])


def cycle_pairs(seed: int) -> list[Pair]:
    """C_n vs 2C_{n/2}: 1-WL cannot tell them apart, so kei search must."""
    from keikit import digraph as dg

    pairs = [Pair(cycles(n, 1), cycles(n, 2), ORACLE_LIMIT, False) for n in CYCLE_NATURAL]
    rng = random.Random(f"cycles/{seed}")
    n = CYCLE_RELABELLED_N
    for _ in range(CYCLE_RELABELLED_COPIES):
        left = cycles(n, 1).relabel(dg.Bijection(tuple(_shuffled(rng, n))))
        right = cycles(n, 2).relabel(dg.Bijection(tuple(_shuffled(rng, n))))
        pairs.append(Pair(left, right, ORACLE_LIMIT, False))
    return pairs


def sampled_pairs(seed: int) -> list[Pair]:
    return sampled_stream(SAMPLED_N, SAMPLED_PAIRS, seed) + cycle_pairs(seed)


def run_reduce_pass(pairs: list[Pair], deadline_s: float,
                    speed: SpeedLog | None = None) -> list[Outcome]:
    from keikit import iso

    outcomes = []
    for p in pairs:
        outcomes.append(run_op(lambda p=p: iso.reduction_check(p.g, p.h, oracle_limit=p.oracle_limit),
                               deadline_s))
        if speed is not None:
            speed.after(len(outcomes))
    return outcomes


def _canonical(adj: np.ndarray) -> bytes:
    """Least relabelled adjacency matrix, by brute force over all orders."""
    n = adj.shape[0]
    return min(adj[np.ix_(p, p)].tobytes() for p in permutations(range(n)))


def _networkx_iso(g, h) -> bool:
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    left = nx.DiGraph(g.adj)
    right = nx.DiGraph(h.adj)
    return DiGraphMatcher(left, right).is_isomorphic()


def expected_graph_iso(workload: str, pairs: list[Pair]) -> list[bool]:
    """Graph-isomorphism truth computed without keikit's searches."""
    if workload == "reduce-exhaustive":
        canon: dict[int, bytes] = {}
        for p in pairs:
            for g in (p.g, p.h):
                if id(g) not in canon:
                    canon[id(g)] = _canonical(g.adj)
        return [canon[id(p.g)] == canon[id(p.h)] for p in pairs]
    return [_networkx_iso(p.g, p.h) for p in pairs]


def stored_graph_iso(workload: str, pairs: list[Pair], truth_file: Path) -> list[bool]:
    """expected_graph_iso, computed once per run and kept in truth_file:
    it depends on the inputs alone."""
    if truth_file.exists():
        return json.loads(truth_file.read_text(encoding="utf-8"))
    truth = expected_graph_iso(workload, pairs)
    truth_file.write_text(json.dumps(truth), encoding="utf-8")
    return truth


def check_reduce(pairs: list[Pair], outcomes: list[Outcome], truth: list[bool]) -> list[str | None]:
    """One entry per pair: None when right, else what went wrong."""
    problems: list[str | None] = []
    for p, out, expected in zip(pairs, outcomes, truth):
        if out.error is not None:
            problems.append(out.error)
            continue
        v = out.value
        if not (v.agree and v.graph_iso == v.kei_iso):
            problems.append(f"verdicts disagree: graph {v.graph_iso}, kei {v.kei_iso}")
        elif v.graph_iso != expected:
            problems.append(f"graph verdict {v.graph_iso}, independent check says {expected}")
        elif p.relabelled and not v.graph_iso:
            problems.append("relabelled copy decided non-isomorphic")
        else:
            problems.append(None)
    return problems


def verdict_lines(pairs: list[Pair], outcomes: list[Outcome]) -> list[str]:
    """Lines in the `reduce-test --log` format; failed pairs are marked."""
    from keikit import digraph as dg

    ids: dict[int, str] = {}
    lines = []
    for p, out in zip(pairs, outcomes):
        for g in (p.g, p.h):
            if id(g) not in ids:
                ids[id(g)] = f"n{g.n}p{dg.pattern_of(g)}"
        if out.error is not None:
            lines.append(f"{ids[id(p.g)]} {ids[id(p.h)]} failed")
            continue
        v = out.value
        lines.append(f"{ids[id(p.g)]} {ids[id(p.h)]} {int(v.graph_iso)} {int(v.kei_iso)} {int(v.agree)}")
    return lines


# ------------------------------------------------------------ cli-tables


@dataclass
class Command:
    kind: str  # check, fold, iso or sigma
    argv: list[str]
    expect_code: int
    check: object  # callable(stdout) -> problem or None
    table: str  # which input, for messages


def _table_text(table: np.ndarray) -> str:
    return f"{len(table)}\n" + "\n".join(" ".join(map(str, row)) for row in table.tolist()) + "\n"


def _edge_text(graph) -> str:
    return f"{graph.n}\n" + "".join(f"{u} {v}\n" for u, v in graph.edges())


def _permuted(table: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The table carried along sigma: out[sigma a, sigma b] = sigma(t[a, b])."""
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out


def dihedral_kei(n: int) -> np.ndarray:
    """R_n: a*b = 2a - b mod n."""
    idx = np.arange(n)
    return (2 * idx[:, None] - idx[None, :]) % n


def _mapping(stdout: str, prefix: str) -> list[int] | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return [int(x) for x in line[len(prefix):].split()]
    return None


def _check_ladder(n: int):
    want = [f"n: {n}", "is_ld: true", "is_rack: true", "is_quandle: true", "is_kei: true"]

    def check(stdout: str):
        return None if stdout.splitlines()[:5] == want else f"ladder output {stdout[:120]!r}"

    return check


def _check_witness(table: np.ndarray):
    def check(stdout: str):
        lines = stdout.split("\n")
        n = len(table)
        tau = np.array([int(x) for x in lines[1].split()])
        phi = np.array([[c == "1" for c in row] for row in lines[2:2 + n]])
        if sorted(tau.tolist()) != list(range(n)) or np.any(tau == np.arange(n)) or np.any(tau[tau] != np.arange(n)):
            return "witness tau is not a fixed-point-free involution"
        rebuilt = np.where(phi, np.arange(n)[None, :], tau[None, :])
        return None if np.array_equal(rebuilt, table) else "witness does not rebuild the table"

    return check


def _check_decode(table: np.ndarray, sigma: np.ndarray, source):
    def check(stdout: str):
        from keikit import digraph as dg
        from keikit.folding import encode_kei
        from keikit.iso import is_magma_isomorphism
        from keikit.magma import Magma

        mu = _mapping(stdout, "# isomorphism from re-encoded kei onto input: ")
        decoded = dg.parse_edge_list(stdout)
        if mu is None or not is_magma_isomorphism(encode_kei(decoded).magma, Magma(table), mu):
            return "printed map is not a kei isomorphism onto the input"
        inverse = np.argsort(sigma)
        f = [int(inverse[mu[2 * u]]) // 2 for u in range(decoded.n)]
        if dg.is_graph_isomorphism(decoded, source, f) or _networkx_iso(decoded, source):
            return None
        return "decoded graph is not isomorphic to the source"

    return check


def _check_magma_iso(left: np.ndarray, right: np.ndarray):
    def check(stdout: str):
        from keikit.iso import is_magma_isomorphism
        from keikit.magma import Magma

        f = _mapping(stdout, "isomorphic: ")
        ok = f is not None and is_magma_isomorphism(Magma(left), Magma(right), f)
        return None if ok else "printed map is not a magma isomorphism"

    return check


def _check_graph_iso(left, right):
    def check(stdout: str):
        from keikit.digraph import is_graph_isomorphism

        f = _mapping(stdout, "isomorphic: ")
        ok = f is not None and is_graph_isomorphism(left, right, f)
        return None if ok else "printed map is not a graph isomorphism"

    return check


def _check_exact(text: str):
    def check(stdout: str):
        return None if stdout.strip() == text else f"expected {text!r}, got {stdout[:80]!r}"

    return check


def _check_sigma(stdout: str):
    lines = stdout.splitlines()
    holds = [line for line in lines if line.startswith("sigma-") and line.endswith(": holds")]
    ok = len(holds) == 4 and lines[-1:] == ["left distributivity of star, derived through the identities: holds"]
    return None if ok else f"sigma output {stdout[-120:]!r}"


def cli_commands(seed: int, workdir: Path) -> list[Command]:
    """Write the tables for cli-tables into workdir and list the commands."""
    from keikit import digraph as dg
    from keikit.folding import encode_kei
    from keikit.groups import FiniteGroup

    rng = random.Random(seed)
    graphs = {n: dg.random_digraph(n, 0.5, rng.randrange(2 ** 30)) for n in (80, 150)}
    keis = {f"k{2 * n}": encode_kei(g).magma.table for n, g in graphs.items()}
    keis["r301"] = dihedral_kei(301)
    sigmas = {name: np.array(_shuffled(rng, len(t))) for name, t in keis.items()}
    permuted = {name: _permuted(t, sigmas[name]) for name, t in keis.items()}
    relabelled = graphs[150].relabel(dg.Bijection(tuple(_shuffled(rng, 150))))
    group = FiniteGroup.dihedral(50).comp
    group = _permuted(group, np.array(_shuffled(rng, len(group))))

    def put(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    files = {name: put(f"{name}.tbl", _table_text(t)) for name, t in keis.items()}
    pfiles = {name: put(f"{name}p.tbl", _table_text(t)) for name, t in permuted.items()}
    sources = {"k160": graphs[80], "k300": graphs[150]}
    commands = [Command("check", ["check", files[k]], 0, _check_ladder(len(keis[k])), k) for k in keis]
    for k in keis:
        if k in sources:
            commands.append(Command("fold", ["detect", pfiles[k]], 0, _check_witness(permuted[k]), k))
            commands.append(Command("fold", ["decode", pfiles[k]], 0,
                                    _check_decode(permuted[k], sigmas[k], sources[k]), k))
        else:  # odd order: classify runs, then no pairing exists
            commands.append(Command("fold", ["detect", pfiles[k]], 1, _check_exact("not folded"), k))
            commands.append(Command("fold", ["decode", pfiles[k]], 1, _check_exact(""), k))
    for k in keis:
        commands.append(Command("iso", ["iso", "magma", files[k], pfiles[k]], 0,
                                _check_magma_iso(keis[k], permuted[k]), k))
    commands.append(Command("iso", ["iso", "graph", put("g150.txt", _edge_text(graphs[150])),
                                    put("g150r.txt", _edge_text(relabelled))], 0,
                            _check_graph_iso(graphs[150], relabelled), "g150"))
    commands.append(Command("sigma", ["sigma-check", put("d50.tbl", _table_text(group))], 0,
                            _check_sigma, "d50"))
    return commands


CLI_PREFIX = ["-c", "import sys; from keikit.cli import entry; sys.exit(entry())"]


@dataclass
class CommandRun:
    code: int
    stdout: str


def run_cli_pass(commands: list[Command], deadline_s: float, workdir: Path, env: dict,
                 in_process: bool, speed: SpeedLog | None = None) -> tuple[list[Outcome], list[float]]:
    """Run every command once; return outcomes and child peak RSS (MB).

    As a subprocess this is what a user runs.  In process (the traced
    run) it calls keikit.cli.main(argv), so wrapped functions see it.
    """
    outcomes: list[Outcome] = []
    rss: list[float] = []
    for i, cmd in enumerate(commands):
        if speed is not None and outcomes:
            speed.after(len(outcomes))
        if in_process:
            outcomes.append(run_op(lambda cmd=cmd: _call_main(cmd.argv), deadline_s))
            continue
        out_path = workdir / f"cmd{i}.out"
        with open(out_path, "wb") as out:
            child = run_child([sys.executable, *CLI_PREFIX, *cmd.argv], deadline_s, out,
                              subprocess.DEVNULL, env=env)
        rss.append(child.maxrss_mb)
        if child.returncode is None:
            outcomes.append(Outcome(child.seconds, error=f"timeout after {deadline_s} s"))
        else:
            text = out_path.read_text(encoding="utf-8")
            outcomes.append(Outcome(child.seconds, value=CommandRun(child.returncode, text)))
    return outcomes, rss


def _call_main(argv: list[str]) -> CommandRun:
    from keikit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CommandRun(code, buf.getvalue())


def check_cli(commands: list[Command], outcomes: list[Outcome]) -> list[str | None]:
    problems: list[str | None] = []
    for cmd, out in zip(commands, outcomes):
        label = f"{cmd.argv[0]} {cmd.table}"
        if out.error is not None:
            problems.append(f"{label}: {out.error}")
        elif out.value.code != cmd.expect_code:
            problems.append(f"{label}: exit {out.value.code}, expected {cmd.expect_code}")
        else:
            try:
                problem = cmd.check(out.value.stdout)
            except Exception as exc:  # unparseable output is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            problems.append(None if problem is None else f"{label}: {problem}")
    return problems
