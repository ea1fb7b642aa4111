"""Byte-for-byte CLI outputs, captured before the Seiberg-Witten ledger was
kept in factored form (verify-paper, exotic, build) and before geography
scans evaluated the symbolic family instead of building each member; any
change to them is a regression.  Each command runs in process through
main() and in a fresh interpreter through the process entry point."""

from pathlib import Path

import pytest

from fourgeo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
K3_BLOCK = str(GOLDEN / "k3_block.geo")
# bench/workloads.generate_script(random.Random(32), 32, 3, True): every
# script operation, arguments of degree up to 32, results up to degree 48
GENERATED = str(GOLDEN / "generated_degree32.geo")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify-paper", "--json"], "verify_paper.json"),
        (["exotic", "--n", "3", "--count", "25"], "exotic_n3_count25.txt"),
        # ledger expanded (genus 57), factored (genus 86529 > cap), symbolic
        (["build", K3_BLOCK, "--n", "2"], "k3_block_n2.txt"),
        (["build", K3_BLOCK, "--n", "8"], "k3_block_n8.txt"),
        (["build", K3_BLOCK, "--symbolic"], "k3_block_symbolic.txt"),
        (["build", GENERATED, "--symbolic"], "generated_degree32_symbolic.txt"),
    ],
)
def test_cli_output_is_byte_identical(capsys, fresh, argv, expected):
    golden = (GOLDEN / expected).read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden
    assert fresh(*argv) == (0, golden, "")


@pytest.mark.parametrize(
    "n_min, n_max, stem",
    [
        ("2", "60", "geography_2_60"),
        ("999999999800", "1000000000000", "geography_1e12"),
    ],
)
def test_geography_output_is_byte_identical(capsys, fresh, tmp_path, n_min, n_max, stem):
    golden_csv = (GOLDEN / f"{stem}.csv").read_bytes()
    golden_svg = (GOLDEN / f"{stem}.svg").read_bytes()
    svg = tmp_path / "scan.svg"
    csv = tmp_path / "scan.csv"
    to_stdout = ["geography", "--n-min", n_min, "--n-max", n_max, "--svg", str(svg)]
    # the CSV written with --csv, as the benchmark writes it
    to_file = ["geography", "--n-min", n_min, "--n-max", n_max, "--csv", str(csv), "--svg", str(svg)]
    assert main(to_stdout) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden_csv
    assert svg.read_bytes() == golden_svg
    svg.unlink()
    assert main(to_file) == 0
    assert capsys.readouterr().out == ""
    assert csv.read_bytes() == golden_csv
    assert svg.read_bytes() == golden_svg
    csv.unlink()
    svg.unlink()
    assert fresh(*to_stdout) == (0, golden_csv, "")
    assert svg.read_bytes() == golden_svg
    svg.unlink()
    assert fresh(*to_file) == (0, b"", "")
    assert csv.read_bytes() == golden_csv
    assert svg.read_bytes() == golden_svg
