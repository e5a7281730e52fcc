"""Workload parameters and helpers shared by the benchmark's coordinator, load and checks.

The benchmark drives pooledsim from outside: it imports the package from the
checkout's ``src`` directory and runs the CLI as ``python -m pooledsim.cli``.
"""
from __future__ import annotations

import hashlib
import os
import sys
import time
from pathlib import Path

WORKLOADS = ("soundness", "figure", "edgelist")

# (label, family, multi) in the order every round runs them.
FAMILIES = (
    ("dr_simple", "doubly_regular", False),
    ("dr_multi", "doubly_regular", True),
    ("bernoulli", "bernoulli", False),
)
LABELS = tuple(label for label, _, _ in FAMILIES)
FAMILY_OF = {label: (family, multi) for label, family, multi in FAMILIES}

# Full-size parameters.  ``tiny`` shrinks every workload for the benchmark's
# own tests; the structure of a run is the same.
PARAMS = {
    "full": {
        "soundness": dict(n=10_000, k=100, gamma=500, eps=0.1, delta=0.1, s11=1.0, s01=0.0),
        "figure": dict(n=1000, k=6, gamma=100, s11=0.8, s01=0.0, eps=0.25,
                       m_grid=(50, 500, 50), trials=100, trace_m=300),
        "edgelist": dict(n=10_000, m=1000, gamma=500, k=100, eps=0.1, s11=1.0, s01=0.0),
    },
    "tiny": {
        "soundness": dict(n=1000, k=10, gamma=100, eps=0.1, delta=0.1, s11=1.0, s01=0.0),
        "figure": dict(n=1000, k=6, gamma=100, s11=0.8, s01=0.0, eps=0.25,
                       m_grid=(50, 500, 50), trials=2, trace_m=300),
        "edgelist": dict(n=1000, m=100, gamma=50, k=10, eps=0.1, s11=1.0, s01=0.0),
    },
}

SETUP_LAUNCHES = 11  # set-up is measured this many times per run; the median is reported


def run_rounds(seconds: float, run_round) -> int:
    """Call ``run_round(r)`` for r = 0, 1, ... while the next round should end near ``seconds``.

    A round is whole, so the run stops once the next round, at the mean length
    of the rounds so far, would end more than half a round past ``seconds``.
    At least one round runs.  Returns the number of rounds.
    """
    start = time.perf_counter()
    r = 0
    while True:
        run_round(r)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= seconds:
            return r


def bench_seed(*parts: int | str) -> int:
    """A 48-bit seed derived from the workload seed and a tag; same parts, same seed."""
    digest = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=6).digest()
    return int.from_bytes(digest, "big")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def m_grid(params: dict) -> list[int]:
    start, stop, step = params["m_grid"]
    return list(range(start, stop + 1, step))


def sweep_config_text(params: dict, families: list[tuple[str, bool]], seed: int,
                      grid: list[int], trials: int) -> str:
    """A sweep config in the README's flat ``key = value`` format."""
    names = ", ".join(f"{family}/{'multi' if multi else 'simple'}" for family, multi in families)
    return (
        f"n = {params['n']}\n"
        f"k = {params['k']}\n"
        f"gamma = {params['gamma']}\n"
        f"s11 = {params['s11']}\n"
        f"s01 = {params['s01']}\n"
        f"epsilon = {params['eps']}\n"
        f"trials = {trials}\n"
        f"seed = {seed}\n"
        f"m_grid = {','.join(str(m) for m in grid)}\n"
        f"families = {names}\n"
    )


def child_env() -> dict[str, str]:
    """Environment for load and CLI processes: the checkout's source, one thread each."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "pooledsim.cli", *args]
