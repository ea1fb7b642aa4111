"""Byte-for-byte CLI outputs, captured before the Seiberg-Witten ledger was
kept in factored form; any change to them is a regression."""

from pathlib import Path

import pytest

from fourgeo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
K3_BLOCK = str(GOLDEN / "k3_block.geo")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify-paper", "--json"], "verify_paper.json"),
        (["exotic", "--n", "3", "--count", "25"], "exotic_n3_count25.txt"),
        # ledger expanded (genus 57), factored (genus 86529 > cap), symbolic
        (["build", K3_BLOCK, "--n", "2"], "k3_block_n2.txt"),
        (["build", K3_BLOCK, "--n", "8"], "k3_block_n8.txt"),
        (["build", K3_BLOCK, "--symbolic"], "k3_block_symbolic.txt"),
    ],
)
def test_cli_output_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")
