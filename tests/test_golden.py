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
    ],
)
def test_reduce_test_log(tmp_path, capsys, stem, argv):
    log = tmp_path / "verdicts.log"
    code = main(["reduce-test", *argv, "--log", str(log)])
    assert code == 0
    assert capsys.readouterr().out == golden(f"{stem}.out")
    assert log.read_bytes() == (GOLDEN / f"{stem}.log").read_bytes()
