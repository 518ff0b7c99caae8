"""Command line interface.

Every command reads plain text files (operation tables, edge lists,
witnesses), never mutates its inputs, and communicates through exit
codes: 0 when the request succeeds or the tested property holds, 1 when
the property fails or a semantic check rejects the input, 2 when the
input is malformed or outside supported limits.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain, product

from . import digraph as dg
from . import folding, iso, magma, sigma
from .errors import InputError, KeikitError, MalformedLine, OutOfRange, TooLarge
from .groups import FiniteGroup
from .textio import file_lines

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2

LADDER_LEVELS = ("ld", "rack", "quandle", "kei")


def _parse(reader, path: str):
    """reader applied to the lines of the file at path, decoded as reader
    pulls them."""
    with open(path, "rb") as stream:
        return reader(file_lines(stream, path))


def _output(out: str | None):
    """stdout when out is None, else the file out opened for writing."""
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    m = _parse(magma.Magma.from_text, args.table)
    # a folded table is a kei, so its O(n^2) witness scan replaces classify
    ladder = magma.Ladder.kei() if folding.is_folded(m) else magma.classify(m)
    print(f"n: {m.n}")
    for level in LADDER_LEVELS:
        print(f"is_{level}: {str(getattr(ladder, f'is_{level}')).lower()}")
    for report in ladder.reports:
        if not report.holds:
            print(report)
            if args.verbose:
                for witness in magma.violations(m, report.axiom):
                    print(f"  violation {witness}")
    if args.expect is not None:
        reached = getattr(ladder, f"is_{args.expect}")
        print(f"expect {args.expect}: {'satisfied' if reached else 'not satisfied'}")
        return EXIT_OK if reached else EXIT_FAIL
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    graph = _parse(dg.parse_edge_list, args.graph)
    encoded = folding.encode_kei(graph)
    with _output(args.output) as stream:
        stream.writelines(encoded.to_lines())
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    m = _parse(magma.Magma.from_text, args.table)
    if args.witness is not None:
        witness = _parse(folding.FoldedWitness.from_text, args.witness)
    else:
        witness = folding.detect_folded(m)
        if witness is None:
            print("not folded", file=sys.stderr)
            return EXIT_FAIL
    graph, mapping = folding.decode_graph(m, witness)
    iso_line = "isomorphism from re-encoded kei onto input: " + " ".join(
        str(x) for x in mapping.map
    )
    with _output(args.output) as stream:
        stream.writelines(chain([f"# {iso_line}\n"], graph.to_lines()))
    if args.output is not None:
        print(iso_line)
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    m = _parse(magma.Magma.from_text, args.table)
    # plain detect is the first item of detect_folded_all, under its own name
    witnesses = folding.detect_folded_all(m) if args.all else iter([folding.detect_folded(m)])
    first = next(witnesses, None)
    if first is None:
        print("not folded")
        return EXIT_FAIL
    with _output(args.output) as stream:
        stream.writelines(chain([first.to_text()], ("\n" + w.to_text() for w in witnesses)))
    return EXIT_OK


def cmd_iso(args: argparse.Namespace) -> int:
    listing = args.kind == "magma" and args.all
    if args.kind == "graph":
        g = _parse(dg.parse_edge_list, args.left)
        h = _parse(dg.parse_edge_list, args.right)
        results = [dg.find_graph_isomorphism(g, h)]
    else:
        m = _parse(magma.Magma.from_text, args.left)
        n_ = _parse(magma.Magma.from_text, args.right)
        if listing:
            results = iso.magma_iso_bruteforce_all(m, n_)
        elif args.brute:
            results = [iso.magma_iso_bruteforce(m, n_)]
        else:
            results = [iso.magma_iso_search(m, n_)]
    count = 0
    for found in results:
        if found is not None:
            print("isomorphic: " + " ".join(str(x) for x in found.map))
            count += 1
    if count == 0:
        print("not isomorphic")
        return EXIT_FAIL
    if listing:
        print(f"count: {count}")
    return EXIT_OK


def _sampled_pairs(n: int, count: int, rng: random.Random):
    """count random pairs of (id, graph) on n vertices, about half of them
    relabelled copies; this RNG call order fixes each seed's log."""
    for _ in range(count):
        g = dg.random_digraph(n, rng.random(), rng.randrange(2 ** 30))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(dg.Bijection(tuple(perm)))
        else:
            h = dg.random_digraph(n, rng.random(), rng.randrange(2 ** 30))
        yield (f"n{n}p{dg.pattern_of(g)}", g), (f"n{n}p{dg.pattern_of(h)}", h)


def cmd_reduce_test(args: argparse.Namespace) -> int:
    n = args.n_max
    if args.mode == "exhaustive":
        if n > 4:
            raise TooLarge("exhaustive mode runs at n <= 4 (use dedupe above 3)")
        graphs = list(dg.enumerate_digraphs(n, dedupe=n >= 4))
        note = " (one representative per isomorphism class)" if n >= 4 else ""
        print(f"graphs: {len(graphs)}{note}")
        pairs = product([(f"n{n}p{dg.pattern_of(g)}", g) for g in graphs], repeat=2)
    else:
        dg.check_vertex_count(n)
        if args.pairs < 0:
            raise OutOfRange(f"pair count {args.pairs} is negative")
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
        if digit_limit and 1 << n * (n - 1) > 10 ** digit_limit:  # ids n{n}p{pattern_of(g)}
            raise TooLarge(
                f"graph ids at n={n} can have more digits than this interpreter's "
                f"int-to-str limit of {digit_limit}"
            )
        if iso.BRUTE_FORCE_LIMIT < 2 * n <= args.oracle_limit:
            raise TooLarge(
                f"--oracle-limit {args.oracle_limit} reaches kei order {2 * n}; "
                f"brute force only runs at order <= {iso.BRUTE_FORCE_LIMIT}"
            )
        print(f"graphs: sampled at n={n}")
        pairs = _sampled_pairs(n, args.pairs, random.Random(args.seed))
    count = disagreements = 0
    # each verdict is written and flushed as it is decided, so a slow run
    # shows its progress and a failure keeps the verdicts before it
    with _output(args.log) as stream:
        for count, ((left, g), (right, h)) in enumerate(pairs, 1):
            verdict = iso.reduction_check(g, h, oracle_limit=args.oracle_limit)
            stream.write(iso.format_verdict_line(left, right, verdict) + "\n")
            stream.flush()
            disagreements += not verdict.agree
    print(f"pairs: {count}")
    print(f"agreements: {count - disagreements}")
    print(f"disagreements: {disagreements}")
    return EXIT_OK if disagreements == 0 else EXIT_FAIL


def cmd_sigma_check(args: argparse.Namespace) -> int:
    comp, star = _parse(partial(sigma.read_sigma_input, kind=args.kind), args.input)
    if star is None:
        group = FiniteGroup(comp)
        algebra = sigma.group_to_sigma(group)
        print(f"group of order {group.n} with star as conjugation")
    else:
        algebra = sigma.SigmaAlgebra(comp, star)
    reports = sigma.check_sigma_identities(algebra)
    all_hold = True
    for report in reports:
        equation = sigma.SIGMA_IDENTITIES[report.axiom][0]
        if report.holds:
            print(f"{report.axiom} ({equation}): holds")
        else:
            print(f"{report.axiom} ({equation}): fails at {report.witness}")
            all_hold = False
    if not all_hold:
        return EXIT_FAIL
    derived = sigma.check_sigma_implies_ld(algebra)
    if derived.holds:
        print("left distributivity of star, derived through the identities: holds")
        return EXIT_OK
    print(f"left distributivity derivation breaks at {derived.witness}")
    return EXIT_FAIL


def cmd_enumerate(args: argparse.Namespace) -> int:
    graphs = dg.enumerate_digraphs(args.n, dedupe=args.dedupe)
    first = next(graphs)  # a refused n raises here, before any file is created
    # one record at a time, so only the current graph and its kei are alive
    with _output(args.output) as out, (nullcontext() if args.keis is None else _output(args.keis)) as keis:
        for count, graph in enumerate(chain([first], graphs), 1):
            sep = "\n" if count > 1 else ""
            out.writelines(chain([sep], graph.to_lines()))
            if keis is not None:
                keis.write(sep)
                keis.writelines(folding.encode_kei(graph).to_lines())
    count_stream = sys.stderr if args.output is None else sys.stdout
    print(f"graphs: {count}", file=count_stream)
    return EXIT_OK


def cmd_apex(args: argparse.Namespace) -> int:
    graph = _parse(dg.parse_edge_list, args.graph)
    subset = _parse_subset(args.subset)
    extended = folding.apex_extension(graph, subset)
    auto = folding.twin_involution(graph, subset)
    base = folding.encode_kei(graph).magma
    if not iso.is_magma_isomorphism(base, base, auto):
        raise KeikitError("twin involution failed to be an automorphism")
    big = folding.encode_kei(extended).magma
    apex_element = 2 * graph.n
    realized = tuple(int(big.table[apex_element, x]) for x in range(2 * graph.n))
    if realized != auto.map:
        raise KeikitError("apex row does not realize the twin involution")
    header = [
        f"# apex vertex {graph.n} points at {sorted(set(subset))}\n",
        "# left multiplication by the apex realizes the twin involution: "
        + " ".join(str(x) for x in auto.map) + "\n",
    ]
    with _output(args.output) as stream:
        stream.writelines(chain(header, extended.to_lines()))
    return EXIT_OK


def _parse_subset(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise MalformedLine(1, text, "subset must be comma separated integers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keikit",
        description="Finite keis and quandles, and the digraph-to-kei correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify an operation table along the axiom ladder")
    p.add_argument("table")
    p.add_argument("-v", "--verbose", action="store_true", help="list every violating tuple")
    p.add_argument("--expect", choices=LADDER_LEVELS, help="exit 1 unless the table reaches this level")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("encode", help="build the kei of a digraph")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover a digraph from a folded kei")
    p.add_argument("table")
    p.add_argument("--witness", help="folding witness file; detected when omitted")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("detect", help="find a folding witness for a kei table")
    p.add_argument("table")
    p.add_argument("--all", action="store_true", help="print every witness")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("iso", help="search for an isomorphism")
    p.add_argument("kind", choices=("graph", "magma"))
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--brute", action="store_true", help="use the brute-force scan (magma only)")
    p.add_argument("--all", action="store_true", help="list every isomorphism by brute force (magma only)")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("reduce-test", help="compare graph isomorphism with kei isomorphism over many pairs")
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--pairs", type=int, default=200, help="pair count in sampled mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle-limit", type=int, default=6, dest="oracle_limit",
                   help="cross-check kei search with brute force up to this kei order")
    p.add_argument("--log", help="write one verdict line per pair to this file")
    p.set_defaults(func=cmd_reduce_test)

    p = sub.add_parser("sigma-check", help="verify the two-operation identities")
    p.add_argument("input")
    p.add_argument("--kind", choices=("auto", "group", "sigma"), default="auto")
    p.set_defaults(func=cmd_sigma_check)

    p = sub.add_parser("enumerate", help="list all digraphs at a small order")
    p.add_argument("n", type=int)
    p.add_argument("--dedupe", action="store_true", help="one representative per isomorphism class")
    p.add_argument("-o", "--output")
    p.add_argument("--keis", help="also write the kei of every listed graph to this file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("apex", help="extend a digraph by one vertex aimed at a subset")
    p.add_argument("graph")
    p.add_argument("--subset", default="", help="comma separated vertices the apex points at")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_apex)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except KeikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
