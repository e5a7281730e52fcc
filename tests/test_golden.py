"""Golden sha256 hashes of small fixed-seed CLI outputs.

They pin the bytes that ``generate``, ``simulate --dump-scores`` and
``sweep`` write, so a refactor that claims to be byte-identical can be
checked.  The random streams and float formatting belong to one numpy
release, hence the version pin; on any other version the test skips.
"""
import hashlib

import numpy as np
import pytest

from pooledsim.cli import main

GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden hashes were recorded with numpy {GOLDEN_NUMPY}, found {np.__version__}",
)

GENERATE_CASES = {
    # dense rows: about a fifth of the slots start as surplus copies
    "dr_simple": (
        ["--n", "60", "--m", "40", "--gamma", "30", "--family", "doubly_regular"],
        "39219e468564a0b4683f0b954a03a32d92333f51e6fabe73c9a27b90edee54e0",
    ),
    "dr_multi": (
        ["--n", "60", "--m", "40", "--gamma", "30", "--family", "doubly_regular", "--multi"],
        "de15548baa8dd4861ebe330585c025234803aba4a9867465da0abbd40d69c3a5",
    ),
    "one_sided_simple": (
        ["--n", "60", "--m", "40", "--gamma", "30", "--family", "one_sided_regular"],
        "2ef60aec4178c39c52f1dc696533afc0d46b5f29e51854d2061638c16fd9d8b6",
    ),
    "bernoulli": (
        ["--n", "60", "--m", "40", "--gamma", "30", "--family", "bernoulli"],
        "6833986af78d3495e12b10ce95d5643aad7bd01676be28e0f6614c4a9851427e",
    ),
    # the figure point: about 1300 surplus copies to repair
    "dr_simple_large": (
        ["--n", "1000", "--m", "300", "--gamma", "100", "--family", "doubly_regular"],
        "651b7ddd819c8b03e53a20a4978010ca4538ab29c7540f57c2c9737e634f7d25",
    ),
}

SIMULATE_ARGS = [
    "simulate", "--n", "1000", "--m", "300", "--gamma", "100",
    "--family", "doubly_regular", "--k", "6", "--eps", "0.25",
    "--seed", "7", "--s11", "0.8", "--dump-scores",
]
SIMULATE_SHA256 = "50b38daa8c53794544edc30be80adaf86d5e1e0adb0b965df47b78d8d4ba529f"

# m = 10 lies below m_floor = 22, so those points are threshold_undefined.
SWEEP_CONFIG = """\
n = 60
k = 4
gamma = 20
s11 = 1.0
s01 = 0.0
epsilon = 0.25
trials = 6
seed = 4242
m_grid = 10,40,80
families = doubly_regular/simple, bernoulli
"""
SWEEP_SHA256 = "26a8b90bb74b6d33da8c236f8d695ef605608ecf812fff67195dac1d65cac310"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATE_CASES))
def test_generate_golden(tmp_path, name):
    args, expected = GENERATE_CASES[name]
    out = tmp_path / f"{name}.edges"
    assert main(["generate", *args, "--seed", "11", "--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == expected


def test_simulate_dump_scores_golden(capsys):
    assert main(SIMULATE_ARGS) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SIMULATE_SHA256


def test_sweep_csv_golden(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), "--workers", "1"]) == 0
    assert sha256(out.read_bytes()) == SWEEP_SHA256
