"""End-to-end command tests, run in process through main()."""

import sys
import tracemalloc

import pytest

from keikit import (
    Digraph,
    InternalContradiction,
    Magma,
    classify,
    KeikitError,
    SigmaAlgebra,
    conjugation_quandle,
    detect_folded,
    encode_kei,
    enumerate_digraphs,
    group_to_sigma,
    is_magma_isomorphism,
    parse_edge_list,
)
from keikit import digraph as dg
from keikit import folding, iso
from keikit.cli import main
from keikit.groups import FiniteGroup

import oracles

EDGE_TEXT = "2\n0 1\n"
REDGE_TEXT = "2\n1 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_trivial_kei(tmp_path, capsys):
    path = write(tmp_path, "t.tbl", oracles.trivial_kei(3).to_text())
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "is_kei: true" in out
    code, out, _ = run(capsys, "check", path, "--expect", "kei")
    assert code == 0
    assert "expect kei: satisfied" in out


def test_check_quandle_not_kei(tmp_path, capsys):
    conj = conjugation_quandle(FiniteGroup.symmetric(3))
    path = write(tmp_path, "s3.tbl", conj.to_text())
    code, out, _ = run(capsys, "check", path, "--expect", "kei")
    assert code == 1
    assert "is_quandle: true" in out
    assert "is_kei: false" in out
    assert "involutivity: fails at (3, 1)" in out
    assert "expect kei: not satisfied" in out
    code, out, _ = run(capsys, "check", path, "--expect", "quandle")
    assert code == 0


def test_check_verbose_lists_violations(tmp_path, capsys):
    path = write(tmp_path, "bad.tbl", Magma([[1, 0], [0, 1]]).to_text())
    code, out, _ = run(capsys, "check", path, "-v")
    assert code == 0
    assert "is_ld: false" in out
    assert "left-distributivity: fails at (0, 0, 0)" in out
    assert any(line.startswith("  violation") for line in out.splitlines())


def test_check_malformed_table(tmp_path, capsys):
    path = write(tmp_path, "trunc.tbl", "3\n0 1 2\n1 2 0\n")
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert err.startswith("error:")


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/nowhere.tbl")
    assert code == 2
    assert err.startswith("error:")


def test_encode_stdout_and_file(tmp_path, capsys):
    graph_path = write(tmp_path, "edge.graph", EDGE_TEXT)
    code, out, _ = run(capsys, "encode", graph_path)
    assert code == 0
    expected = encode_kei(parse_edge_list(EDGE_TEXT)).to_text()
    assert out == expected
    out_path = tmp_path / "edge.kei"
    code, _, _ = run(capsys, "encode", graph_path, "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == expected
    assert Magma.from_text(expected).table.tolist() == [
        [0, 1, 2, 3],
        [0, 1, 2, 3],
        [1, 0, 2, 3],
        [1, 0, 2, 3],
    ]


def test_decode_round_trip(tmp_path, capsys):
    graph_path = write(tmp_path, "edge.graph", EDGE_TEXT)
    kei_path = str(tmp_path / "edge.kei")
    run(capsys, "encode", graph_path, "-o", kei_path)
    code, out, _ = run(capsys, "decode", kei_path)
    assert code == 0
    assert "# isomorphism from re-encoded kei onto input: 0 1 2 3" in out
    assert parse_edge_list(out) == parse_edge_list(EDGE_TEXT)

    decoded_path = tmp_path / "decoded.graph"
    code, out, _ = run(capsys, "decode", kei_path, "-o", str(decoded_path))
    assert code == 0
    assert out.strip() == "isomorphism from re-encoded kei onto input: 0 1 2 3"
    assert parse_edge_list(decoded_path.read_text(encoding="utf-8")) == parse_edge_list(
        EDGE_TEXT
    )


def test_decode_with_explicit_witness(tmp_path, capsys):
    graph_path = write(tmp_path, "edge.graph", EDGE_TEXT)
    kei_path = str(tmp_path / "edge.kei")
    run(capsys, "encode", graph_path, "-o", kei_path)
    witness_path = str(tmp_path / "edge.wit")
    code, _, _ = run(capsys, "detect", kei_path, "-o", witness_path)
    assert code == 0
    code, out, _ = run(capsys, "decode", kei_path, "--witness", witness_path)
    assert code == 0
    assert parse_edge_list(out) == parse_edge_list(EDGE_TEXT)


def test_decode_not_folded(tmp_path, capsys):
    path = write(tmp_path, "t3.tbl", oracles.trivial_kei(3).to_text())
    code, _, err = run(capsys, "decode", path)
    assert code == 1
    assert "not folded" in err


def test_detect_not_folded_and_all(tmp_path, capsys):
    path = write(tmp_path, "t3.tbl", oracles.trivial_kei(3).to_text())
    code, out, _ = run(capsys, "detect", path)
    assert code == 1
    assert "not folded" in out

    path = write(tmp_path, "t4.tbl", oracles.trivial_kei(4).to_text())
    code, out, _ = run(capsys, "detect", path, "--all")
    assert code == 0
    records = oracles.catalog_records(out)
    assert len(records) == 3


def test_iso_graph(tmp_path, capsys):
    left = write(tmp_path, "l.graph", EDGE_TEXT)
    right = write(tmp_path, "r.graph", REDGE_TEXT)
    code, out, _ = run(capsys, "iso", "graph", left, right)
    assert code == 0
    assert out.strip() == "isomorphic: 1 0"
    empty = write(tmp_path, "e.graph", "2\n")
    code, out, _ = run(capsys, "iso", "graph", left, empty)
    assert code == 1
    assert out.strip() == "not isomorphic"


def test_iso_magma(tmp_path, capsys):
    q_edge = encode_kei(parse_edge_list(EDGE_TEXT)).magma
    q_redge = encode_kei(parse_edge_list(REDGE_TEXT)).magma
    left = write(tmp_path, "l.tbl", q_edge.to_text())
    right = write(tmp_path, "r.tbl", q_redge.to_text())
    for extra in ([], ["--brute"]):
        code, out, _ = run(capsys, "iso", "magma", left, right, *extra)
        assert code == 0
        mapping = [int(t) for t in out.split(":")[1].split()]
        assert is_magma_isomorphism(q_edge, q_redge, mapping)
    code, out, _ = run(capsys, "iso", "magma", left, left, "--all")
    assert code == 0
    assert out.count("isomorphic:") == 4
    assert "count: 4" in out
    t4 = write(tmp_path, "t4.tbl", oracles.trivial_kei(4).to_text())
    code, out, _ = run(capsys, "iso", "magma", left, t4)
    assert code == 1
    assert out.strip() == "not isomorphic"


def test_reduce_test_exhaustive(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce-test", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert "graphs: 4" in lines[0]
    verdicts = [l for l in lines if l and l[0] == "n"]
    assert len(verdicts) == 16
    for line in verdicts:
        assert oracles.verdict_flags(line)[2]
    assert "pairs: 16" in out
    assert "agreements: 16" in out
    assert "disagreements: 0" in out


def test_reduce_test_log_reruns_identically(tmp_path, capsys):
    log1 = tmp_path / "one.log"
    log2 = tmp_path / "two.log"
    code, _, _ = run(capsys, "reduce-test", "--n-max", "2", "--log", str(log1))
    assert code == 0
    code, _, _ = run(capsys, "reduce-test", "--n-max", "2", "--log", str(log2))
    assert code == 0
    assert log1.read_bytes() == log2.read_bytes()
    assert len(log1.read_text(encoding="utf-8").splitlines()) == 16


def test_reduce_test_exhaustive_order_three(tmp_path, capsys):
    log = tmp_path / "n3.log"
    code, out, _ = run(capsys, "reduce-test", "--n-max", "3", "--log", str(log))
    assert code == 0
    assert "graphs: 64" in out
    assert "pairs: 4096" in out
    assert "agreements: 4096" in out
    assert "disagreements: 0" in out
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4096
    for line in lines:
        assert oracles.verdict_flags(line)[2]


def test_reduce_test_sampled_order_six(tmp_path, capsys):
    log = tmp_path / "n6.log"
    code, out, _ = run(
        capsys,
        "reduce-test", "--mode", "sampled", "--n-max", "6",
        "--pairs", "500", "--seed", "7", "--log", str(log),
    )
    assert code == 0
    assert "pairs: 500" in out
    assert "agreements: 500" in out
    assert "disagreements: 0" in out


def test_reduce_test_sampled(tmp_path, capsys):
    log1 = tmp_path / "s1.log"
    log2 = tmp_path / "s2.log"
    args = ["reduce-test", "--mode", "sampled", "--n-max", "3", "--pairs", "20", "--seed", "5"]
    code, out, _ = run(capsys, *args, "--log", str(log1))
    assert code == 0
    assert "pairs: 20" in out
    assert "disagreements: 0" in out
    code, _, _ = run(capsys, *args, "--log", str(log2))
    assert log1.read_bytes() == log2.read_bytes()


@pytest.mark.parametrize("to_log", [False, True], ids=["stdout", "log"])
def test_reduce_test_streams_verdicts_before_an_error(tmp_path, capsys, monkeypatch, to_log):
    # the third pair fails; the two verdicts decided before it are kept
    real = iso.reduction_check
    calls = []

    def failing_third(g, h, oracle_limit=6):
        calls.append(None)
        if len(calls) == 3:
            raise InternalContradiction("third pair fails")
        return real(g, h, oracle_limit=oracle_limit)

    monkeypatch.setattr(iso, "reduction_check", failing_third)
    log = tmp_path / "verdicts.log"
    argv = ["reduce-test", "--n-max", "2"] + (["--log", str(log)] if to_log else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "error: third pair fails\n"
    verdicts = ["n2p0 n2p0 1 1 1", "n2p0 n2p1 0 0 1"]
    if to_log:
        assert out == "graphs: 4\n"
        assert log.read_text(encoding="utf-8") == "".join(v + "\n" for v in verdicts)
    else:
        assert out.splitlines() == ["graphs: 4", *verdicts]


def test_reduce_test_zero_pairs_writes_an_empty_log(tmp_path, capsys):
    log = tmp_path / "verdicts.log"
    code, out, _ = run(
        capsys, "reduce-test", "--mode", "sampled", "--pairs", "0", "--log", str(log)
    )
    assert code == 0
    assert out == "graphs: sampled at n=3\npairs: 0\nagreements: 0\ndisagreements: 0\n"
    assert log.read_bytes() == b""


def test_reduce_test_refused_creates_no_log(tmp_path, capsys):
    log = tmp_path / "verdicts.log"
    code, out, _ = run(
        capsys, "reduce-test", "--mode", "sampled", "--pairs", "-1", "--log", str(log)
    )
    assert code == 2
    assert out == ""
    assert not log.exists()


def test_sigma_check_group(tmp_path, capsys):
    comp = FiniteGroup.symmetric(3).comp
    path = write(tmp_path, "s3.grp", Magma(comp).to_text())
    code, out, _ = run(capsys, "sigma-check", path)
    assert code == 0
    assert "group of order 6 with star as conjugation" in out
    for name in ("sigma-1", "sigma-2", "sigma-3", "sigma-4"):
        assert f"{name} (" in out and "holds" in out
    assert "left distributivity of star, derived through the identities: holds" in out
    z2 = write(tmp_path, "z2.grp", Magma(FiniteGroup.cyclic(2).comp).to_text())
    code, out, _ = run(capsys, "sigma-check", z2)
    assert code == 0
    assert "group of order 2" in out


def test_sigma_check_sigma_file(tmp_path, capsys):
    algebra = group_to_sigma(FiniteGroup.symmetric(3))
    path = write(tmp_path, "s3.sigma", algebra.to_text())
    code, out, _ = run(capsys, "sigma-check", path)
    assert code == 0
    assert "derived through the identities: holds" in out


def test_sigma_check_failing_star(tmp_path, capsys):
    text = "2\n0 1\n1 0\n\n0 0\n1 1\n"
    path = write(tmp_path, "proj.sigma", text)
    code, out, _ = run(capsys, "sigma-check", path)
    assert code == 1
    assert "sigma-2" in out and "fails at (0, 1, 0)" in out


def test_sigma_check_malformed(tmp_path, capsys):
    path = write(tmp_path, "odd.sigma", "2\n0 1\n1 0\n0 0\n")
    code, _, err = run(capsys, "sigma-check", path)
    assert code == 2
    assert err.startswith("error:")


def test_sigma_check_not_a_group(tmp_path, capsys):
    path = write(tmp_path, "no.grp", "2\n0 0\n0 0\n")
    code, _, err = run(capsys, "sigma-check", path, "--kind", "group")
    assert code == 2
    assert err.startswith("error:")


def test_enumerate_stdout(tmp_path, capsys):
    code, out, err = run(capsys, "enumerate", "2")
    assert code == 0
    assert "graphs: 4" in err
    graphs = [parse_edge_list(record) for record in oracles.catalog_records(out)]
    assert graphs == list(enumerate_digraphs(2))


def test_enumerate_to_files(tmp_path, capsys):
    catalog = tmp_path / "n2.cat"
    keis = tmp_path / "n2.keis"
    code, out, _ = run(
        capsys, "enumerate", "2", "-o", str(catalog), "--keis", str(keis)
    )
    assert code == 0
    assert "graphs: 4" in out
    records = oracles.catalog_records(catalog.read_text(encoding="utf-8"))
    graphs = [parse_edge_list(record) for record in records]
    assert graphs == list(enumerate_digraphs(2))
    records = oracles.catalog_records(keis.read_text(encoding="utf-8"))
    assert len(records) == 4
    for graph, record in zip(graphs, records):
        assert Magma.from_text(record) == encode_kei(graph).magma


def test_enumerate_dedupe_and_keis(tmp_path, capsys):
    code, out, err = run(capsys, "enumerate", "3", "--dedupe")
    assert code == 0
    assert "graphs: 16" in err
    graphs = [parse_edge_list(record) for record in oracles.catalog_records(out)]
    assert len(graphs) == len(set(graphs)) == 16

    keis = tmp_path / "n3.keis"
    code, _, err = run(capsys, "enumerate", "3", "--keis", str(keis))
    assert code == 0
    assert "graphs: 64" in err
    records = oracles.catalog_records(keis.read_text(encoding="utf-8"))
    assert len(records) == 64
    for record in records:
        assert classify(Magma.from_text(record)).is_kei


def test_enumerate_too_large(capsys):
    code, _, err = run(capsys, "enumerate", "6")
    assert code == 2
    assert err.startswith("error:")


def test_enumerate_refused_creates_no_file(tmp_path, capsys):
    catalog, keis = tmp_path / "n6.cat", tmp_path / "n6.keis"
    code, out, err = run(capsys, "enumerate", "6", "-o", str(catalog), "--keis", str(keis))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not catalog.exists() and not keis.exists()


def test_enumerate_streams_in_bounded_memory(tmp_path):
    # 4096 graphs and their keis; only the current one is kept alive
    tracemalloc.start()
    try:
        code = main(["enumerate", "4", "-o", str(tmp_path / "n4.cat"), "--keis", str(tmp_path / "n4.keis")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2 ** 20


def test_apex(tmp_path, capsys):
    graph_path = write(tmp_path, "edge.graph", EDGE_TEXT)
    code, out, _ = run(capsys, "apex", graph_path, "--subset", "1")
    assert code == 0
    assert "realizes the twin involution: 1 0 2 3" in out
    extended = parse_edge_list(out)
    assert extended == Digraph(3, [(0, 1), (2, 1)])
    code, out, _ = run(capsys, "apex", graph_path)
    assert code == 0
    assert parse_edge_list(out) == Digraph(3, [(0, 1)])


def test_apex_bad_subset(tmp_path, capsys):
    graph_path = write(tmp_path, "edge.graph", EDGE_TEXT)
    code, _, err = run(capsys, "apex", graph_path, "--subset", "7")
    assert code == 2
    assert err.startswith("error:")
    code, out, err = run(capsys, "apex", graph_path, "--subset", "a")
    assert (code, out) == (2, "")
    assert err == "error: line 1: 'a' (subset must be comma separated integers)\n"


@pytest.mark.parametrize("command", ["check", "sigma-check"])
@pytest.mark.parametrize(
    "data",
    [b"2\n0 1\n1 \xff\n", b"2\n0 1\n1 99999999999999999999\n", b"2\n0 1\n1 -99999999999999999999\n"],
    ids=["non-utf8", "above-int64", "below-int64"],
)
def test_hostile_input_exits_2(tmp_path, capsys, command, data):
    path = tmp_path / "hostile.tbl"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_detect_all_streams(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "t4.tbl", oracles.trivial_kei(4).to_text())
    first = detect_folded(oracles.trivial_kei(4))

    def one_then_fail(m):
        yield first
        raise KeikitError("stopped after the first witness")

    monkeypatch.setattr(folding, "detect_folded_all", one_then_fail)
    code, out, err = run(capsys, "detect", path, "--all")
    assert code == 1
    assert out == first.to_text()
    assert err == "error: stopped after the first witness\n"
    # With -o the file keeps what was written before the error.
    target = tmp_path / "w.txt"
    code, out, err = run(capsys, "detect", path, "--all", "-o", str(target))
    assert code == 1
    assert out == ""
    assert err == "error: stopped after the first witness\n"
    assert target.read_text(encoding="utf-8") == first.to_text()


def test_detect_not_folded_creates_no_file(tmp_path, capsys):
    path = write(tmp_path, "t3.tbl", oracles.trivial_kei(3).to_text())
    target = tmp_path / "w.txt"
    for extra in ([], ["--all"]):
        code, out, _ = run(capsys, "detect", path, *extra, "-o", str(target))
        assert code == 1
        assert out == "not folded\n"
        assert not target.exists()


def test_vertex_count_above_limit_exits_2(tmp_path, capsys):
    graph = write(tmp_path, "big.graph", "1000000000\n0 1\n")
    for argv in (
        ["encode", graph],
        ["iso", "graph", graph, graph],
        ["apex", graph],
        ["reduce-test", "--mode", "sampled", "--n-max", "1000000000"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv


@pytest.mark.parametrize("n", ["0", "-3"])
def test_reduce_test_sampled_without_vertices_exits_2(capsys, n):
    code, out, err = run(capsys, "reduce-test", "--mode", "sampled", f"--n-max={n}")
    assert code == 2
    assert out == ""
    assert err == "error: a digraph needs at least one vertex\n"


@pytest.mark.parametrize(
    "argv",
    [["--n-max", "5", "--pairs", "3", "--oracle-limit", "12"], ["--pairs", "-1"]],
    ids=["oracle-past-brute-force", "negative-pairs"],
)
def test_reduce_test_sampled_refused_before_printing(capsys, argv):
    code, out, err = run(capsys, "reduce-test", "--mode", "sampled", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_test_sampled_ids_within_the_int_to_str_limit(tmp_path, capsys):
    # an id n{n}p{pattern} holds a pattern of n(n-1) bits: at most 4,299 digits
    # at n=120 and up to 4,371 at n=121, past the interpreter's default limit
    log = tmp_path / "verdicts.log"
    argv = ["reduce-test", "--mode", "sampled", "--pairs", "1"]
    code, out, err = run(capsys, *argv, "--n-max", "120", "--log", str(log))
    assert (code, err) == (0, "")
    assert out == "graphs: sampled at n=120\npairs: 1\nagreements: 1\ndisagreements: 0\n"
    assert log.read_text().startswith("n120p")
    code, out, err = run(capsys, *argv, "--n-max", "121")
    assert (code, out) == (2, "")
    assert err == (
        "error: graph ids at n=121 can have more digits than this interpreter's "
        f"int-to-str limit of {sys.get_int_max_str_digits()}\n"
    )


def test_check_refuses_order_above_limit(tmp_path, capsys):
    n = 4097
    path = write(tmp_path, "big.tbl", f"{n}\n" + " ".join(map(str, range(n))) + "\n")
    code, out, err = run(capsys, "check", path)
    assert code == 2
    assert out == ""
    assert err == "error: order 4097 is above the limit of 4096\n"


def test_decode_above_vertex_limit_exits_2(tmp_path, capsys, monkeypatch):
    # A kei of order above 2 * MAX_VERTICES decodes to too many vertices;
    # the limit is lowered so that the kei of a 3-vertex graph crosses it.
    path = write(tmp_path, "k.tbl", encode_kei(Digraph(3)).magma.to_text())
    monkeypatch.setattr(dg, "MAX_VERTICES", 2)
    code, out, err = run(capsys, "decode", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# The witness of the kei of the one-edge graph 0 -> 1, one line per entry.
WITNESS_LINES = ["4", "1 0 3 2", "1111", "1111", "0011", "0011"]


@pytest.mark.parametrize(
    "lines, lineno",
    [
        (WITNESS_LINES[:2] + [""] + WITNESS_LINES[2:], 3),
        (WITNESS_LINES[:4] + [""] + WITNESS_LINES[4:], 5),
        (WITNESS_LINES[:3] + ["111"] + WITNESS_LINES[4:], 4),
        (WITNESS_LINES[:4] + ["0021"] + WITNESS_LINES[5:], 5),
        (WITNESS_LINES[:-1], 6),
    ],
    ids=["blank-after-involution", "blank-between-rows", "short-row", "digit-2", "missing-row"],
)
def test_decode_malformed_witness_names_its_line(tmp_path, capsys, lines, lineno):
    kei = write(tmp_path, "edge.kei", encode_kei(parse_edge_list(EDGE_TEXT)).to_text())
    witness = write(tmp_path, "edge.wit", "\n".join(lines) + "\n")
    code, out, err = run(capsys, "decode", kei, "--witness", witness)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: line {lineno}: ")


def test_comments_and_blank_lines_where_the_grammar_allows_them():
    witness = "\n".join(WITNESS_LINES) + "\n"
    noisy_witness = "# w\n\n4\n# w\n1 0 3 2\n# w\n1111\n  # w\n1111\n0 0 1 1\n# w\n0011\n\n# w\n\n"
    assert folding.FoldedWitness.from_text(noisy_witness) == folding.FoldedWitness.from_text(witness)

    sigma = "2\n0 1\n1 0\n\n0 1\n0 1\n"
    noisy_sigma = "\n# s\n2\n# s\n0 1\n# s\n1 0\n\n# s\n\n0 1\n# s\n0 1\n\n# s\n"
    assert SigmaAlgebra.from_text(noisy_sigma).to_text() == SigmaAlgebra.from_text(sigma).to_text()
    assert SigmaAlgebra.from_text("2\n0 1\n1 0\n0 1\n0 1\n").to_text() == sigma

    edges = "3\n0 1\n1 2\n"
    noisy_edges = "# e\n\n3\n\n# e\n0 1\n\n\n# e\n1 2\n\n# e\n"
    assert parse_edge_list(noisy_edges) == parse_edge_list(edges)
