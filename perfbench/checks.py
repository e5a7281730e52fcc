"""Correctness checks computed apart from pooledsim.

Every check recomputes what the program reports from first principles (closed
forms, scipy, a separate text parser) and raises CheckFailed on a mismatch.
None of them runs inside a timed section.
"""
from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------------ closed forms


def rate(n: int, p: float, s11: float, s01: float) -> float:
    p_s = p * (s11 - s01) + s01
    return (s11 - s01) ** 2 / (2.0 * n * p_s)


def closed_form_m_min(n: int, p: float, eps: float, delta: float, s11: float, s01: float) -> int:
    """Smallest integer strictly above the paper's sufficient query bound."""
    log_target = math.log(2.0 / (eps * delta))
    log_target_p = math.log(2.0 / (eps * delta * p))
    bound = (math.log(1.0 / p) + 2.0 * log_target
             + 2.0 * math.sqrt(log_target * log_target_p)) / rate(n, p, s11, s01)
    return math.floor(bound) + 1


def closed_form_m_floor(n: int, p: float, s11: float, s01: float) -> int:
    """Smallest query count with rate * m > ln(1/p), where a threshold exists."""
    return math.floor(math.log(1.0 / p) / rate(n, p, s11, s01)) + 1


# ------------------------------------------------------------------ soundness


def check_m_min(reported: int, n: int, p: float, eps: float, delta: float,
                s11: float, s01: float) -> None:
    expected = closed_form_m_min(n, p, eps, delta, s11, s01)
    _require(reported == expected,
             f"required_queries m_min={reported}, closed form gives {expected}")


def check_recovery(truth: np.ndarray, estimate: np.ndarray, k: int, eps: float,
                   hamming: int, overlap: float, eps_ok: bool) -> None:
    """Recount Hamming distance, overlap and the epsilon budget from the two bit vectors."""
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    ones = int(np.count_nonzero(truth == 1))
    _require(ones == k, f"truth holds {ones} one-bits, prior fixes k={k}")
    _require(bool(np.isin(estimate, (0, 1)).all()), "estimate is not a 0/1 vector")
    recount = int(np.count_nonzero(truth != estimate))
    _require(recount == hamming, f"reported hamming {hamming}, recount {recount}")
    hits = int(np.count_nonzero((truth == 1) & (estimate == 1)))
    _require(math.isclose(hits / ones, overlap, rel_tol=0, abs_tol=1e-12),
             f"reported overlap {overlap}, recount {hits / ones}")
    _require((recount <= 2.0 * eps * ones) == bool(eps_ok),
             f"reported eps_ok={eps_ok} for hamming {recount} and budget {2.0 * eps * ones}")


def check_dr_failures(failures: int, trials: int, delta: float, alpha: float = 1e-4) -> None:
    """DR epsilon-recovery failures must not sit in the far tail of Binomial(trials, delta)."""
    from scipy.stats import binom

    tail = float(binom.sf(failures - 1, trials, delta)) if failures else 1.0
    _require(tail >= alpha,
             f"{failures}/{trials} DR recovery failures: P(X >= {failures}) = {tail:.3g} "
             f"under Binomial({trials}, {delta}) is below {alpha}")


# ------------------------------------------------------------------ figure CSV

# The CSV header as the top-level README documents it.
CSV_HEADER = (
    "family,multi,n,k,p,s11,s01,gamma,m,trials,"
    "success_rate,ci_low,ci_high,mean_overlap,failures,seed"
)


def wilson(successes: int, trials: int) -> tuple[float, float]:
    from scipy.stats import binomtest

    ci = binomtest(successes, trials).proportion_ci(confidence_level=0.95, method="wilson")
    return float(ci.low), float(ci.high)


def check_sweep_csv(text: str, *, n: int, k: int, gamma: int, s11: float, s01: float,
                    families: list[tuple[str, bool]], grid: list[int], trials: int,
                    seed: int, m_floor: int) -> None:
    """Header, row order, fixed fields, structural failures, Wilson CIs and monotone ends."""
    _require(text.endswith("\n") and "\r" not in text, "CSV must end in LF and hold no CR")
    lines = text[:-1].split("\n")
    _require(lines[0] == CSV_HEADER, f"CSV header {lines[0]!r} differs from the README")
    expected_keys = sorted((family, multi, m) for family, multi in families for m in grid)
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == len(expected_keys),
             f"CSV has {len(rows)} rows, expected {len(expected_keys)}")
    p = k / n
    by_family: dict[tuple[str, bool], list[tuple[int, float]]] = {}
    for lineno, (fields, (family, multi, m)) in enumerate(zip(rows, expected_keys), start=2):
        where = f"CSV line {lineno}"
        _require(len(fields) == 16, f"{where}: {len(fields)} fields, expected 16")
        (f_family, f_multi, f_n, f_k, f_p, f_s11, f_s01, f_gamma, f_m, f_trials,
         f_rate, f_low, f_high, f_overlap, f_failures, f_seed) = fields
        _require((f_family, f_multi, f_m) == (family, "true" if multi else "false", str(m)),
                 f"{where}: row ({f_family}, {f_multi}, {f_m}) out of (family, multi, m) order")
        _require((f_n, f_k, f_gamma, f_trials, f_seed)
                 == (str(n), str(k), str(gamma), str(trials), str(seed)),
                 f"{where}: n/k/gamma/trials/seed fields do not match the config")
        _require(float(f_p) == p and float(f_s11) == s11 and float(f_s01) == s01,
                 f"{where}: p/s11/s01 fields do not match the config")
        rate_value = float(f_rate)
        successes = round(rate_value * trials)
        _require(0 <= successes <= trials and successes / trials == rate_value,
                 f"{where}: success_rate {f_rate} is not a count over {trials} trials")
        failures = int(f_failures)
        expected_failures = trials if m < m_floor else 0
        _require(failures == expected_failures,
                 f"{where}: {failures} failures at m={m}, expected {expected_failures} "
                 f"(m_floor={m_floor})")
        low, high = wilson(successes, trials)
        _require(abs(float(f_low) - low) < 1e-4 and abs(float(f_high) - high) < 1e-4,
                 f"{where}: CI ({f_low}, {f_high}) differs from Wilson ({low:.6f}, {high:.6f})")
        _require(0.0 <= float(f_overlap) <= 1.0,
                 f"{where}: mean_overlap {f_overlap} outside [0, 1]")
        by_family.setdefault((family, multi), []).append((m, rate_value))
    for (family, multi), points in by_family.items():
        defined = [value for m, value in points if m >= m_floor]
        if defined:
            _require(defined[-1] >= defined[0],
                     f"{family}/{'multi' if multi else 'simple'}: success {defined[-1]} at the "
                     f"largest m is below {defined[0]} at the smallest defined m")


def check_identical(first: bytes, second: bytes, what: str) -> None:
    _require(first == second, f"{what}: outputs differ ({len(first)} vs {len(second)} bytes)")


# ------------------------------------------------------------------ edge lists


def parse_edge_list(text: str) -> tuple[list[str], np.ndarray]:
    """Header fields and an (E, 3) array of (agent, query, multiplicity) lines."""
    header, _, body = text.partition("\n")
    _require(body.endswith("\n") or not body, "edge list does not end in LF")
    with warnings.catch_warnings():
        # numpy warns, and stops early, on text that is not all integers
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(body, dtype=np.int64, sep=" ")
        except (DeprecationWarning, ValueError) as exc:
            raise CheckFailed(f"edge-list body does not parse: {exc}") from None
    _require(values.size == 3 * body.count("\n"), "edge-list body is not one triple per line")
    return header.split(" "), values.reshape(-1, 3)


def check_edge_list(text: str, *, n: int, m: int, gamma: int, family: str,
                    multi: bool) -> np.ndarray:
    """Validate one generated file and return its (E, 3) triples."""
    header, triples = parse_edge_list(text)
    expected = [str(n), str(m), str(gamma), family, "true" if multi else "false"]
    _require(header == expected, f"edge-list header {header} does not match {expected}")
    agents, queries, mult = triples.T
    _require(bool(((agents >= 0) & (agents < n) & (queries >= 0) & (queries < m)).all()),
             "edge-list index out of range")
    _require(bool((mult >= 1).all()), "edge-list multiplicity below 1")
    keys = agents * m + queries
    _require(bool((np.diff(keys) > 0).all()), "edge-list lines are not sorted and unique")
    if not multi:
        _require(bool((mult == 1).all()), "simple design has a multiplicity above 1")
    if family == "doubly_regular":
        q_deg = np.bincount(queries, weights=mult, minlength=m)
        _require(bool((q_deg == gamma).all()), "a query degree differs from gamma")
        a_deg = np.bincount(agents, weights=mult, minlength=n)
        _require(a_deg.max() - a_deg.min() <= 1, "agent degrees differ by more than 1")
    else:
        q = gamma / n
        mean = m * n * q
        sigma = math.sqrt(m * n * q * (1.0 - q))
        _require(abs(int(mult.sum()) - mean) <= 5.0 * sigma,
                 f"Bernoulli edge count {int(mult.sum())} lies beyond 5 sigma of {mean}")
    return triples


def check_same_graph(triples: np.ndarray, edge_agents: np.ndarray, edge_queries: np.ndarray,
                     edge_mult: np.ndarray, what: str) -> None:
    expected = np.stack([edge_agents, edge_queries, edge_mult], axis=1)
    _require(triples.shape == expected.shape and bool((triples == expected).all()),
             f"{what}: graph differs from in-process generate with the same seed")


def graph_digest(edge_agents: np.ndarray, edge_queries: np.ndarray, edge_mult: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in (edge_agents, edge_queries, edge_mult):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ traced stages


def check_scores(edge_agents: np.ndarray, edge_queries: np.ndarray, n: int, m: int,
                 results: np.ndarray, scores: np.ndarray) -> None:
    """Scores equal the membership-incidence product A @ results."""
    from scipy.sparse import csr_matrix

    incidence = csr_matrix((np.ones(edge_agents.size), (edge_agents, edge_queries)), shape=(n, m))
    expected = incidence @ np.asarray(results, dtype=np.float64)
    _require(bool(np.array_equal(expected, scores)), "scores differ from the incidence product")


def check_thresholds(edge_agents: np.ndarray, edge_mult: np.ndarray, n: int, m: int, p: float,
                     s11: float, s01: float, thresholds: np.ndarray) -> None:
    """Per-agent thresholds equal degree * (s01 + fraction * (s11 - s01))."""
    degrees = np.bincount(edge_agents, weights=edge_mult, minlength=n)
    fraction = 0.5 + math.log(1.0 / p) / (2.0 * rate(n, p, s11, s01) * m)
    expected = degrees * (s01 + fraction * (s11 - s01))
    _require(bool(np.allclose(expected, thresholds, rtol=1e-12, atol=0.0)),
             "thresholds differ from the closed form")


def check_query_sums(edge_agents: np.ndarray, edge_queries: np.ndarray, edge_mult: np.ndarray,
                     bits: np.ndarray, m: int, s11: float, s01: float,
                     results: np.ndarray) -> None:
    """Noiseless reads equal exact member sums; false-negative-only reads never exceed them."""
    exact = np.bincount(edge_queries, weights=edge_mult * np.asarray(bits)[edge_agents],
                        minlength=m)
    results = np.asarray(results)
    if s11 == 1.0 and s01 == 0.0:
        _require(bool(np.array_equal(exact, results)),
                 "noiseless query results differ from member sums")
    elif s01 == 0.0:
        _require(bool(((results >= 0) & (results <= exact)).all()),
                 "false-negative-only query results exceed member sums")


def check_same_estimate(stage_estimate: np.ndarray, trial_estimate: np.ndarray | None,
                        what: str) -> None:
    _require(trial_estimate is not None and bool(np.array_equal(stage_estimate, trial_estimate)),
             f"{what}: stage-by-stage estimate differs from run_trial_detailed")
