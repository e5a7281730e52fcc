"""The load process of one workload run.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It sets up,
prints ``READY`` (the end of set-up), warms up, runs whole rounds of timed
operations for about ``--seconds``, reads its peak RSS, and only then checks
every output, so the checks never raise the peak.  It writes the metrics, the
counts and the failed checks to ``result.json`` in ``--out``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import checks
from common import (
    FAMILIES,
    FAMILY_OF,
    LABELS,
    PARAMS,
    WORKLOADS,
    bench_seed,
    cli_command,
    m_grid,
    nproc,
    run_rounds,
    sweep_config_text,
)


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _error_text(proc: subprocess.CompletedProcess) -> str:
    return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"


def _collect(errors: list[str], where: str, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except checks.CheckFailed as exc:
        errors.append(f"{where}: {exc}")


# Trials per family in one soundness round, so that each family gets a similar
# share of the run's time: trials take ~1.7 s (DR/simple), ~0.5 s (DR/multi) and
# ~1 s (Bernoulli).  A figure or edgelist round is one operation of each family.
SOUNDNESS_ROUND = {"dr_simple": 1, "dr_multi": 3, "bernoulli": 2}


def round_plan(counts: dict[str, int]) -> list[tuple[str, int]]:
    """(family label, slot) pairs of one round, the families interleaved."""
    return [(label, slot) for slot in range(max(counts.values()))
            for label, count in counts.items() if slot < count]


class Load:
    """Whole rounds of timed operations.

    Each operation appends a record with its family ``label``, its wall time
    ``ms``, the ``trials`` it ran and ``error`` (None, or why it failed).
    """

    def __init__(self, out: Path) -> None:
        self.out = out
        self.ops: list[dict] = []
        self.wall_s = 0.0

    def warm_up(self, workload: str) -> None:
        """One round on the tiny inputs, so that first calls do not land in the timed phase."""
        out = self.out / "warm"
        out.mkdir()
        type(self)(PARAMS["tiny"][workload], 0, out).round(0)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        run_rounds(seconds, self.round)
        self.wall_s = time.perf_counter() - start

    def metrics(self) -> dict:
        """Trials per second of the timed phase and the median time per trial of each family."""
        done = [op for op in self.ops if op["error"] is None]
        metrics = {"ops_per_s": sum(op["trials"] for op in done) / self.wall_s}
        for label in LABELS:
            values = [op["ms"] / op["trials"] for op in done if op["label"] == label]
            if values:
                metrics[f"op_ms.{label}"] = statistics.median(values)
        return metrics

    def result(self) -> dict:
        peak = peak_rss_mib()  # before the checks, which must not set it
        errors = self.errors()
        return {
            "attempted": sum(op["trials"] for op in self.ops),
            "failed": sum(op["trials"] for op in self.ops if op["error"] is not None),
            "raised": [f"{op['label']}: {op['error']}" for op in self.ops
                       if op["error"] is not None],
            "errors": errors,
            "metrics": {**self.metrics(), "peak_rss_mib": peak},
        }


class Soundness(Load):
    """Interleaved run_trial_detailed calls at the soundness point."""

    def __init__(self, params: dict, seed: int, out: Path) -> None:
        from pooledsim import ChannelMatrix, DesignSpec, FixedPrior, TrialConfig, required_queries

        super().__init__(out)
        self.params = params
        n, k = params["n"], params["k"]
        channel = ChannelMatrix(s11=params["s11"], s01=params["s01"])
        self.m = required_queries(n, k / n, params["eps"], params["delta"], channel).m_min
        base = bench_seed(seed, "soundness")
        self.configs = {
            label: TrialConfig(
                design=DesignSpec(n=n, m=self.m, gamma=params["gamma"], family=family,
                                  allow_multi=multi),
                prior=FixedPrior(k), channel=channel, epsilon=params["eps"], base_seed=base)
            for label, family, multi in FAMILIES
        }

    def _trial(self, label: str, index: int) -> dict:
        from pooledsim import run_trial_detailed

        start = time.perf_counter()
        try:
            detail = run_trial_detailed(self.configs[label], self.m, index)
        except Exception as exc:  # a raising trial is a failed operation; keep going
            return {"label": label, "ms": (time.perf_counter() - start) * 1e3, "trials": 1,
                    "error": repr(exc)}
        # keep what the checks need, not the per-agent score arrays
        return {"label": label, "ms": (time.perf_counter() - start) * 1e3, "trials": 1,
                "error": None, "result": detail.result, "truth": detail.truth.bits,
                "estimate": detail.estimate}

    def round(self, r: int) -> None:
        slots = max(SOUNDNESS_ROUND.values())
        for label, slot in round_plan(SOUNDNESS_ROUND):
            self.ops.append(self._trial(label, r * slots + slot))

    def errors(self) -> list[str]:
        params = self.params
        n, k, eps, delta = params["n"], params["k"], params["eps"], params["delta"]
        errors: list[str] = []
        _collect(errors, "soundness", checks.check_m_min, self.m, n, k / n, eps, delta,
                 params["s11"], params["s01"])
        dr_trials = dr_failures = 0
        for i, op in enumerate(self.ops):
            if op["error"] is not None:
                continue
            result = op["result"]
            try:
                if result.failure is not None:
                    raise checks.CheckFailed(f"ended {result.failure} at m_min")
                if ((result.family, result.multi) != FAMILY_OF[op["label"]]
                        or result.m != self.m):
                    raise checks.CheckFailed("reports the wrong design point")
                checks.check_recovery(op["truth"], op["estimate"], k, eps,
                                      result.hamming, result.overlap, result.eps_ok)
            except checks.CheckFailed as exc:
                errors.append(f"soundness trial {i}: {exc}")
            if result.family == "doubly_regular":
                dr_trials += 1
                dr_failures += not result.eps_ok
        _collect(errors, "soundness", checks.check_dr_failures, dr_failures, dr_trials, delta)
        return errors


class Figure(Load):
    """One `pooledsim sweep` CLI run per family per round, at nproc workers."""

    def __init__(self, params: dict, seed: int, out: Path) -> None:
        import pooledsim.cli  # noqa: F401  set-up loads what every sweep process loads

        super().__init__(out)
        self.params = params
        self.seed = seed
        self.grid = m_grid(params)
        self.workers = nproc()

    def _sweep(self, tag: str, family: str, multi: bool, seed: int, grid: list[int],
               trials: int) -> dict:
        config = self.out / f"{tag}.cfg"
        csv = self.out / f"{tag}.csv"
        config.write_text(sweep_config_text(self.params, [(family, multi)], seed, grid, trials))
        command = cli_command("sweep", "--config", str(config), "--output", str(csv),
                              "--workers", str(self.workers))
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True)
        ms = (time.perf_counter() - start) * 1e3
        return {"ms": ms, "csv": csv, "seed": seed, "trials": trials * len(grid),
                "error": None if proc.returncode == 0 else _error_text(proc)}

    def round(self, r: int) -> None:
        for label, family, multi in FAMILIES:
            seed = bench_seed(self.seed, "figure", r, label)
            record = self._sweep(f"fig-r{r}-{label}", family, multi, seed, self.grid,
                                 self.params["trials"])
            self.ops.append({"label": label, **record})

    def errors(self) -> list[str]:
        params = self.params
        m_floor = checks.closed_form_m_floor(params["n"], params["k"] / params["n"],
                                             params["s11"], params["s01"])
        errors: list[str] = []
        for op in self.ops:
            if op["error"] is None:
                _collect(errors, op["csv"].name, checks.check_sweep_csv,
                         op["csv"].read_text(encoding="utf-8"), n=params["n"], k=params["k"],
                         gamma=params["gamma"], s11=params["s11"], s01=params["s01"],
                         families=[FAMILY_OF[op["label"]]], grid=self.grid,
                         trials=params["trials"], seed=op["seed"], m_floor=m_floor)
        return errors


class EdgeList(Load):
    """`pooledsim generate` for each family, then read_edge_list on the file it wrote."""

    def __init__(self, params: dict, seed: int, out: Path) -> None:
        from pooledsim import read_edge_list

        super().__init__(out)
        self.read_edge_list = read_edge_list
        self.params = params
        self.seed = seed

    def _round_trip(self, tag: str, family: str, multi: bool, seed: int) -> dict:
        params = self.params
        path = self.out / f"{tag}.edges"
        command = cli_command(
            "generate", "--n", str(params["n"]), "--m", str(params["m"]),
            "--gamma", str(params["gamma"]), "--family", family, "--seed", str(seed),
            "--output", str(path), *(["--multi"] if multi else []))
        record = {"file": path, "seed": seed, "trials": 1, "error": None}
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            return {**record, "ms": (time.perf_counter() - start) * 1e3,
                    "error": _error_text(proc)}
        try:
            with open(path, encoding="utf-8") as stream:
                _, graph = self.read_edge_list(stream)
        except Exception as exc:  # a raising read is a failed operation; keep going
            return {**record, "ms": (time.perf_counter() - start) * 1e3, "error": repr(exc)}
        record["ms"] = (time.perf_counter() - start) * 1e3
        # the read graph is checked after the timed phase; keep its digest, not its arrays
        record["digest"] = checks.graph_digest(graph.edge_agents, graph.edge_queries,
                                               graph.edge_mult)
        return record

    def round(self, r: int) -> None:
        for label, family, multi in FAMILIES:
            seed = bench_seed(self.seed, "edgelist", r, label)
            self.ops.append({"label": label,
                             **self._round_trip(f"edges-r{r}-{label}", family, multi, seed)})

    def errors(self) -> list[str]:
        from pooledsim import DesignSpec, generate

        params = self.params
        errors: list[str] = []
        for op in self.ops:
            if op["error"] is not None:
                continue
            family, multi = FAMILY_OF[op["label"]]
            spec = DesignSpec(n=params["n"], m=params["m"], gamma=params["gamma"], family=family,
                              allow_multi=multi)
            try:
                triples = checks.check_edge_list(op["file"].read_text(encoding="utf-8"),
                                                 n=spec.n, m=spec.m, gamma=spec.gamma,
                                                 family=family, multi=multi)
                graph = generate(spec, np.random.default_rng(op["seed"]))
                checks.check_same_graph(triples, graph.edge_agents, graph.edge_queries,
                                        graph.edge_mult, "as written")
                digest = checks.graph_digest(graph.edge_agents, graph.edge_queries,
                                             graph.edge_mult)
                if op["digest"] != digest:
                    raise checks.CheckFailed("read_edge_list gives another graph than generate")
            except checks.CheckFailed as exc:
                errors.append(f"{op['file'].name}: {exc}")
        return errors


LOADS = {"soundness": Soundness, "figure": Figure, "edgelist": EdgeList}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=sorted(PARAMS), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    params = PARAMS[args.scale][args.workload]
    if args.trace:
        from layers import profile

        print("READY", flush=True)
        result = profile(args.workload, params, args.seed, args.seconds, args.out)
    else:
        load = LOADS[args.workload](params, args.seed, args.out)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        load.warm_up(args.workload)
        load.run(args.seconds)
        result = load.result()
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
