"""Byte-exact CLI outputs pinned in tests/golden.

The files were produced by the CLI itself and are the behaviour
contract: least witnesses, the order of `check -v` violations and of
`detect --all` witnesses, the `enumerate --dedupe` representatives,
the text of an encoded kei, and `reduce-test` logs for a fixed seed
must never change.
"""

from pathlib import Path

import pytest

from keikit.cli import main

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_check_verbose_many_violations(capsys):
    code = main(["check", "-v", str(GOLDEN / "check_many_violations.tbl")])
    assert code == 0
    assert capsys.readouterr().out == golden("check_many_violations.out")


def test_detect_all_lists_every_pairing(capsys):
    # the trivial kei of order 4 is folded under all three pairings
    code = main(["detect", "--all", str(GOLDEN / "detect_all_trivial4.tbl")])
    assert code == 0
    assert capsys.readouterr().out == golden("detect_all_trivial4.out")


def test_enumerate_dedupe(capsys):
    code = main(["enumerate", "3", "--dedupe"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == golden("enumerate3_dedupe.out")
    assert captured.err == "graphs: 16\n"


def test_encode(capsys):
    code = main(["encode", str(GOLDEN / "encode_graph4.edges")])
    assert code == 0
    assert capsys.readouterr().out == golden("encode_graph4.out")


def test_enumerate_keis(tmp_path, capsys):
    keis = tmp_path / "keis.txt"
    code = main(["enumerate", "3", "--keis", str(keis)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == golden("enumerate3.out")
    assert captured.err == "graphs: 64\n"
    assert keis.read_bytes() == (GOLDEN / "enumerate3_keis.out").read_bytes()
    catalog = tmp_path / "catalog.txt"
    code = main(["enumerate", "3", "-o", str(catalog), "--keis", str(keis)])
    assert code == 0
    assert capsys.readouterr().out == "graphs: 64\n"
    assert catalog.read_bytes() == (GOLDEN / "enumerate3.out").read_bytes()
    assert keis.read_bytes() == (GOLDEN / "enumerate3_keis.out").read_bytes()


@pytest.mark.parametrize(
    "stem, argv",
    [
        ("reduce_n3", ["--n-max", "3"]),
        (
            "reduce_sampled_n5_seed7",
            ["--mode", "sampled", "--n-max", "5", "--pairs", "50", "--seed", "7"],
        ),
        # three isomorphic pairs here once took about a minute of kei search
        (
            "reduce_sampled_n12_seed7",
            ["--mode", "sampled", "--n-max", "12", "--pairs", "200", "--seed", "7", "--oracle-limit", "0"],
        ),
    ],
)
def test_reduce_test_log(tmp_path, capsys, stem, argv):
    log = tmp_path / "verdicts.log"
    code = main(["reduce-test", *argv, "--log", str(log)])
    assert code == 0
    assert capsys.readouterr().out == golden(f"{stem}.out")
    assert log.read_bytes() == (GOLDEN / f"{stem}.log").read_bytes()


# iso inputs: a directed path on 3 vertices, the same path relabelled,
# and a non-isomorphic graph, with their keis as written by `encode`.
# The `iso magma` search line pins today's search map; which
# isomorphism the search returns may change with the search itself.
@pytest.mark.parametrize(
    "stem, argv, expected_code",
    [
        ("iso_graph_found", ["graph", "iso_path.edges", "iso_path_relabelled.edges"], 0),
        ("iso_graph_not_found", ["graph", "iso_path.edges", "iso_in_star.edges"], 1),
        # --all lists isomorphisms of magmas only; a graph search ignores it
        ("iso_graph_found", ["graph", "iso_path.edges", "iso_path_relabelled.edges", "--all"], 0),
        ("iso_magma_search", ["magma", "iso_path.tbl", "iso_path_relabelled.tbl"], 0),
        ("iso_magma_brute", ["magma", "iso_path.tbl", "iso_path_relabelled.tbl", "--brute"], 0),
        ("iso_magma_all", ["magma", "iso_path.tbl", "iso_path_relabelled.tbl", "--all"], 0),
        ("iso_magma_not_found", ["magma", "iso_path.tbl", "iso_in_star.tbl"], 1),
        ("iso_magma_all_not_found", ["magma", "iso_path.tbl", "iso_in_star.tbl", "--all"], 1),
    ],
)
def test_iso(capsys, stem, argv, expected_code):
    kind, *rest = argv
    paths = [str(GOLDEN / a) if not a.startswith("--") else a for a in rest]
    code = main(["iso", kind, *paths])
    assert code == expected_code
    captured = capsys.readouterr()
    assert captured.out == golden(f"{stem}.out")
    assert captured.err == ""


@pytest.mark.parametrize(
    "stem, table, level, expected_code",
    [
        ("check_expect_kei", "detect_all_trivial4.tbl", "kei", 0),
        ("check_expect_ld", "check_many_violations.tbl", "ld", 1),
    ],
)
def test_check_expect(capsys, stem, table, level, expected_code):
    code = main(["check", "--expect", level, str(GOLDEN / table)])
    assert code == expected_code
    assert capsys.readouterr().out == golden(f"{stem}.out")


def test_reduce_test_stdout(capsys):
    code = main(["reduce-test", "--n-max", "2"])
    assert code == 0
    assert capsys.readouterr().out == golden("reduce_n2.out")


# sigma-check inputs: the S3 group table, a comp/star file on which all
# four identities fail, and Z5 with two cells of row 1 swapped, which
# keeps its identity and inverses but is not associative.
@pytest.mark.parametrize(
    "stem, argv, expected_code",
    [
        ("sigma_s3", ["sigma_s3.grp"], 0),
        ("sigma_failing", ["sigma_failing.sigma"], 1),
    ],
)
def test_sigma_check(capsys, stem, argv, expected_code):
    code = main(["sigma-check", *(str(GOLDEN / a) for a in argv)])
    assert code == expected_code
    captured = capsys.readouterr()
    assert captured.out == golden(f"{stem}.out")
    assert captured.err == ""


def test_sigma_check_group_not_associative(capsys):
    code = main(["sigma-check", "--kind", "group", str(GOLDEN / "sigma_not_associative_z5.grp")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == golden("sigma_not_associative_z5.err")


# Fold inputs: the kei of a 5-vertex digraph (a directed triangle, a
# vertex into it, and a vertex every other vertex points at) with its
# elements relabelled; the dihedral kei R7, whose odd order admits no
# folding; `2 / 1 0 / 1 0`, a rack that is not idempotent, which
# detect and decode refuse as not a kei; and an order-28 kei in which
# elements 0..24 swap 26 and 27 and fix the rest, while 25, 26 and 27
# act trivially: the elements fixed by everything fall into classes of
# 25 and 1 equal phi rows, so no pairing exists, and finding that must
# not take one step per partial pairing.
@pytest.mark.parametrize(
    "command, table, expected_code",
    [
        ("check", "fold_relabelled.tbl", 0),
        ("detect", "fold_relabelled.tbl", 0),
        ("decode", "fold_relabelled.tbl", 0),
        ("check", "dihedral7.tbl", 0),
        ("detect", "dihedral7.tbl", 1),
        ("decode", "dihedral7.tbl", 1),
        ("check", "not_idempotent2.tbl", 0),
        ("detect", "not_idempotent2.tbl", 1),
        ("decode", "not_idempotent2.tbl", 1),
        ("check", "odd_class28.tbl", 0),
        ("detect", "odd_class28.tbl", 1),
    ],
)
def test_fold_commands(capsys, command, table, expected_code):
    stem = f"{command}_{Path(table).stem}"
    code = main([command, str(GOLDEN / table)])
    assert code == expected_code
    captured = capsys.readouterr()
    assert captured.out == golden(f"{stem}.out")
    err = GOLDEN / f"{stem}.err"
    assert captured.err == (golden(err.name) if err.exists() else "")
