import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh(tmp_path):
    """fresh(*argv) runs `python -m fourgeo.cli ARGV` in a new interpreter,
    with stdout written to a file as the benchmark writes it, and returns
    (exit code, stdout bytes, stderr text)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*argv):
        out = tmp_path / "fresh.stdout"
        with open(out, "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "fourgeo.cli", *argv], env=env,
                                  stdout=fh, stderr=subprocess.PIPE, timeout=120)
        return proc.returncode, out.read_bytes(), proc.stderr.decode("utf-8")

    return run
