"""Byte-exact CLI outputs pinned in tests/golden.

The files were produced by the CLI itself and are the behaviour
contract: least witnesses, the order of `check -v` violations, and
`reduce-test` logs for a fixed seed must never change.
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
