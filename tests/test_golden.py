"""Byte-for-byte CLI outputs, captured before the Seiberg-Witten ledger was
kept in factored form (verify-paper, exotic, build) and before geography
scans evaluated the symbolic family instead of building each member, and
(as digests) before exotic printed each entry as it was built; the
scripts/kn.geo builds were captured before the blocks became module-level
records.  Any change to them is a regression.  Each command runs in process
through main() and in a fresh interpreter through the process entry point."""

import hashlib
from pathlib import Path

import pytest

from fourgeo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
K3_BLOCK = str(GOLDEN / "k3_block.geo")
# bench/workloads.generate_script(random.Random(32), 32, 3, True): every
# script operation, arguments of degree up to 32, results up to degree 48
GENERATED = str(GOLDEN / "generated_degree32.geo")
KN_SCRIPT = str(GOLDEN.parent.parent / "scripts" / "kn.geo")


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
        # the packaged family script: the outputs a rewrite of it must keep
        (["build", KN_SCRIPT, "--symbolic"], "kn_symbolic.txt"),
        (["build", KN_SCRIPT, "--n", "3"], "kn_n3.txt"),
        (["build", KN_SCRIPT, "--n", "8"], "kn_n8.txt"),
    ],
)
def test_cli_output_is_byte_identical(capsys, fresh, argv, expected):
    golden = (GOLDEN / expected).read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden
    assert fresh(*argv) == (0, golden, "")


# sha256 of `exotic --n 3 --count C` stdout, captured before the report was
# streamed, in the `sha256sum` format that CI checks with `sha256sum -c`
EXOTIC_SHA256 = [line.split() for line in (GOLDEN / "exotic_n3_sha256.txt").read_text().splitlines()]


@pytest.mark.parametrize("digest, name", EXOTIC_SHA256, ids=[name for _, name in EXOTIC_SHA256])
def test_exotic_output_at_scale_has_the_golden_digest(capsys, fresh, digest, name):
    count = name.removeprefix("exotic_n3_count").removesuffix(".txt")
    argv = ["exotic", "--n", "3", "--count", count]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
    code, out, err = fresh(*argv)
    assert (code, hashlib.sha256(out).hexdigest(), err) == (0, digest, "")


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
