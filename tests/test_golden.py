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
    "bernoulli": (
        ["--n", "60", "--m", "40", "--gamma", "30", "--family", "bernoulli"],
        "d1d5d04db7f7d738773d47d6e0a5afcd54f0a00f04bcc9c362ca355e2debb84a",
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
SIMULATE_SHA256 = "f155b4b2ace6f0bc1cf3709345183c7e455093816273d9c1a1c397dab72576bc"

# s01 > 0: the zero-bit reads of every query draw their own binomial.
SIMULATE_NOISY_ARGS = [
    "simulate", "--n", "1000", "--m", "1000", "--gamma", "100",
    "--family", "doubly_regular", "--multi", "--k", "6", "--eps", "0.25",
    "--seed", "7", "--s11", "0.9", "--s01", "0.05", "--dump-scores",
]
SIMULATE_NOISY_SHA256 = "369719d0fce521aa25d8afabbd71ed17ab93585bb2f2d5a2552d0f83a1472a14"

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
SWEEP_SHA256 = "9565a28372e29210b926ebaba9bfc03260a898612f5ef66774c14a68eca33d0a"


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


def test_simulate_dump_scores_general_channel_golden(capsys):
    assert main(SIMULATE_NOISY_ARGS) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SIMULATE_NOISY_SHA256


def test_sweep_csv_golden(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), "--workers", "1"]) == 0
    assert sha256(out.read_bytes()) == SWEEP_SHA256
