"""Byte-for-byte CLI outputs, captured before the Seiberg-Witten ledger was
kept in factored form (verify-paper, exotic, build) and before geography
scans evaluated the symbolic family instead of building each member; any
change to them is a regression."""

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


@pytest.mark.parametrize(
    "n_min, n_max, stem",
    [
        ("2", "60", "geography_2_60"),
        ("999999999800", "1000000000000", "geography_1e12"),
    ],
)
def test_geography_output_is_byte_identical(capsys, tmp_path, n_min, n_max, stem):
    svg = tmp_path / "scan.svg"
    assert main(["geography", "--n-min", n_min, "--n-max", n_max, "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.csv").read_text(encoding="utf-8")
    assert svg.read_bytes() == (GOLDEN / f"{stem}.svg").read_bytes()
    # the CSV written with --csv, as the benchmark writes it
    csv = tmp_path / "scan.csv"
    svg.unlink()
    argv = ["geography", "--n-min", n_min, "--n-max", n_max, "--csv", str(csv), "--svg", str(svg)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert csv.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
    assert svg.read_bytes() == (GOLDEN / f"{stem}.svg").read_bytes()
