"""Traced run: every layer's public calls timed one by one on the workload's inputs.

A round runs, for each family, the stages that run_trial_detailed runs, called
separately with the seed run_trial derives, then run_trial_detailed itself on
the same seed; then the edge-list writer and reader, run_sweep at one and at
nproc workers, and the `sweep` and `generate` CLI against their in-process
equivalents.  Each call is a span (name, start, end, parent); the spans go to
``trace.json``.  The heavier checks run here, between the timed calls.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from common import (
    FAMILIES,
    LABELS,
    PARAMS,
    bench_seed,
    cli_command,
    m_grid,
    nproc,
    run_rounds,
    sweep_config_text,
)


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def span_cost_s(self, batches: int = 7, spans: int = 2000) -> float:
        """Median wall time that opening and closing one empty span costs."""
        costs = []
        for _ in range(batches):
            probe = Tracer()
            start = time.perf_counter()
            for _ in range(spans):
                with probe.span("probe"):
                    pass
            costs.append((time.perf_counter() - start) / spans)
        return statistics.median(costs)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


# The spans a traced trial opens: the trial itself and its six stages.
TRIAL_SPANS = ("trial", "truth", "generate", "queries", "scores", "decode", "recovery")


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


class Profile:
    """The layer profile of one workload's parameters."""

    def __init__(self, workload: str, params: dict, seed: int, out: Path) -> None:
        import pooledsim as ps

        self.ps = ps
        self.params = params
        self.seed = seed
        self.out = out
        self.tracer = Tracer()
        self.samples: dict[str, list[float]] = {}
        self.errors: list[str] = []  # failed checks
        self.raised: list[str] = []  # failed operations
        self.attempted = 0
        self.failed = 0
        n, k = params["n"], params["k"]
        self.p = k / n
        self.channel = ps.ChannelMatrix(s11=params["s11"], s01=params["s01"])
        self.workers = nproc()
        if workload == "soundness":
            self.m = ps.required_queries(n, self.p, params["eps"], params["delta"],
                                         self.channel).m_min
            self.grid, self.sweep_trials = [self.m], 1
        elif workload == "figure":
            self.m = params["trace_m"]
            self.grid, self.sweep_trials = m_grid(params), max(1, params["trials"] // 4)
        else:
            self.m = params["m"]
            self.grid, self.sweep_trials = [self.m], 1
        self.base_seed = bench_seed(seed, workload, "trace")
        self.configs = {
            label: ps.TrialConfig(
                design=ps.DesignSpec(n=n, m=self.m, gamma=params["gamma"], family=family,
                                     allow_multi=multi),
                prior=ps.FixedPrior(k), channel=self.channel, epsilon=params["eps"],
                base_seed=self.base_seed)
            for label, family, multi in FAMILIES
        }

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))

    def op(self, name: str, fn):
        """One timed operation; a raise counts it failed and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # keep profiling the other layers
            self.failed += 1
            self.raised.append(f"{name} raised {exc!r}")
            return None

    # -------------------------------------------------------------- stages

    def _stages(self, label: str, r: int) -> dict:
        ps, tr = self.ps, self.tracer
        config = self.configs[label]
        design = config.design
        stream = ps.experiment.FAMILY_STREAM_IDS[(design.family, design.allow_multi)]
        seed = ps.derive_seed(config.base_seed, [self.m, stream, r])
        spans = {}
        with tr.span(f"trial.{label}") as spans["trial"]:
            rng = np.random.default_rng(seed)
            with tr.span("model.truth") as spans["truth"]:
                truth = ps.sample_ground_truth(design.n, config.prior, rng)
            with tr.span("designs.generate") as spans["generate"]:
                graph = ps.generate(design, rng)
            with tr.span("channel.queries") as spans["queries"]:
                outcomes = ps.run_queries(graph, truth, config.channel, rng)
            with tr.span("decoder.scores") as spans["scores"]:
                vector = ps.compute_score_vector(graph, outcomes, self.p, config.channel, self.m)
            with tr.span("decoder.decode") as spans["decode"]:
                estimate = ps.decode(vector.scores, vector.centers, vector.thresholds)
            with tr.span("model.recovery") as spans["recovery"]:
                report = ps.eps_recovery(truth, estimate, config.epsilon)
        return {"seed": seed, "spans": spans, "truth": truth, "graph": graph,
                "outcomes": outcomes, "vector": vector, "estimate": estimate, "report": report}

    def _trial(self, label: str, r: int) -> None:
        rtd = None

        def full():
            nonlocal rtd
            with self.tracer.span(f"experiment.run_trial_detailed.{label}") as rtd:
                return self.ps.run_trial_detailed(self.configs[label], self.m, r)

        # the first of two equal calls tends to run slower; alternate which goes first
        if r % 2:
            detail = self.op(f"run_trial_detailed.{label}", full)
        staged = self.op(f"stages.{label}", lambda: self._stages(label, r))
        if not r % 2:
            detail = self.op(f"run_trial_detailed.{label}", full)
        if staged is None:
            return
        spans = staged["spans"]
        stage_sum = sum(seconds(spans[s]) for s in TRIAL_SPANS if s != "trial")
        trial = seconds(spans["trial"])
        self.add(f"designs.generate_ms.{label}", seconds(spans["generate"]) * 1e3)
        self.add(f"designs.generate_share.{label}", seconds(spans["generate"]) / trial)
        self.add(f"channel.queries_ms.{label}", seconds(spans["queries"]) * 1e3)
        self.add(f"decoder.scores_ms.{label}", seconds(spans["scores"]) * 1e3)
        self.add("decoder.decode_ms", seconds(spans["decode"]) * 1e3)
        self.add("model.truth_ms", seconds(spans["truth"]) * 1e3)
        self.add("model.recovery_ms", seconds(spans["recovery"]) * 1e3)
        graph = staged["graph"]
        self.add(f"designs.edges.{label}", float(graph.edge_mult.sum()))
        if detail is not None:
            self.add("experiment.trial_overhead_ms", (seconds(rtd) - stage_sum) * 1e3)
            self.add("trace.untraced_s", seconds(rtd))
        # heavier checks, outside every span
        n, params = self.params["n"], self.params
        bits = staged["truth"].bits
        results = staged["outcomes"].results
        self.check(checks.check_query_sums, graph.edge_agents, graph.edge_queries,
                   graph.edge_mult, bits, self.m, params["s11"], params["s01"], results)
        self.check(checks.check_scores, graph.edge_agents, graph.edge_queries, n, self.m,
                   results, staged["vector"].scores)
        self.check(checks.check_thresholds, graph.edge_agents, graph.edge_mult, n, self.m,
                   self.p, params["s11"], params["s01"], staged["vector"].thresholds)
        report = staged["report"]
        self.check(checks.check_recovery, bits, staged["estimate"], params["k"], params["eps"],
                   report.hamming, report.overlap, report.eps_ok)
        self.check(checks.check_same_estimate, staged["estimate"],
                   None if detail is None else detail.estimate, f"{label} round {r}")
        if label == "dr_simple":
            self._repair_surplus(staged["seed"])
            self._edge_list(graph, r)

    def _repair_surplus(self, seed: int) -> None:
        """Surplus copies the DR/simple trial repairs: the same stubs, left as a multigraph."""
        ps = self.ps
        config = self.configs["dr_simple"]

        def multi():
            rng = np.random.default_rng(seed)
            ps.sample_ground_truth(config.design.n, config.prior, rng)
            with self.tracer.span("designs.generate.surplus_probe"):
                return ps.generate(replace(config.design, allow_multi=True), rng)

        graph = self.op("surplus_probe", multi)
        if graph is not None:
            self.add("designs.repair_surplus_copies", float((graph.edge_mult - 1).sum()))

    # -------------------------------------------------------------- edge lists

    def _edge_list(self, graph, r: int) -> None:
        ps, tr = self.ps, self.tracer
        path = self.out / f"trace-r{r}.edges"

        def write():
            with tr.span("designs.write_edge_list") as span:
                with open(path, "w", encoding="utf-8", newline="\n") as stream:
                    ps.write_edge_list(stream, graph, "doubly_regular", False)
            return span

        def read():
            with tr.span("designs.read_edge_list") as span:
                with open(path, encoding="utf-8") as stream:
                    _, back = ps.read_edge_list(stream)
            return span, back

        written = self.op("write_edge_list", write)
        if written is None:
            return
        self.add("designs.write_edge_list_ms", seconds(written) * 1e3)
        self.add("designs.edge_list_bytes", float(path.stat().st_size))
        got = self.op("read_edge_list", read)
        if got is not None:
            span, back = got
            self.add("designs.read_edge_list_ms", seconds(span) * 1e3)
            self.check(checks.check_same_graph,
                       np.stack([back.edge_agents, back.edge_queries, back.edge_mult], axis=1),
                       graph.edge_agents, graph.edge_queries, graph.edge_mult,
                       "read_edge_list round trip")
        path.unlink()

    # -------------------------------------------------------------- sweeps and CLI

    def _sweeps(self, r: int) -> None:
        ps, tr, params = self.ps, self.tracer, self.params
        seed = bench_seed(self.seed, "trace-sweep", r)
        families = [(family, multi) for _, family, multi in FAMILIES]
        template = replace(self.configs["dr_simple"], base_seed=seed)

        def in_process(workers: int):
            with tr.span(f"experiment.run_sweep.workers{workers}") as span:
                rows = ps.run_sweep(template, self.grid, families, self.sweep_trials,
                                    workers=workers)
            return span, rows

        config = self.out / "trace-sweep.cfg"
        config.write_text(sweep_config_text(params, families, seed, self.grid, self.sweep_trials))

        def cli(workers: int):
            csv = self.out / f"trace-sweep-w{workers}.csv"
            command = cli_command("sweep", "--config", str(config), "--output", str(csv),
                                  "--workers", str(workers))
            with tr.span(f"cli.sweep.workers{workers}") as span:
                proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"sweep exit {proc.returncode}: {proc.stderr[-500:]}")
            return span, csv.read_bytes()

        one = self.op("run_sweep.workers1", lambda: in_process(1))
        many = self.op("run_sweep.workersN", lambda: in_process(self.workers))
        cli_many = self.op("cli.sweep.workersN", lambda: cli(self.workers))
        cli_one = self.op("cli.sweep.workers1", lambda: cli(1))
        if one and many:
            self.add("experiment.sweep_s.workers1", seconds(one[0]))
            self.add("experiment.sweep_s.workersN", seconds(many[0]))
            self.add("experiment.parallel_efficiency",
                     seconds(one[0]) / (self.workers * seconds(many[0])))
            self.check(checks.check_identical, repr(one[1]).encode(), repr(many[1]).encode(),
                       "run_sweep rows at 1 and N workers")
        if many and cli_many:
            self.add("cli.sweep_overhead_s", seconds(cli_many[0]) - seconds(many[0]))
        if cli_many and cli_one:
            self.check(checks.check_identical, cli_one[1], cli_many[1],
                       "sweep CSV at 1 and N workers")
            self.check(checks.check_sweep_csv, cli_many[1].decode("utf-8"), n=params["n"],
                       k=params["k"], gamma=params["gamma"], s11=params["s11"],
                       s01=params["s01"], families=families, grid=self.grid,
                       trials=self.sweep_trials, seed=seed,
                       m_floor=checks.closed_form_m_floor(params["n"], self.p, params["s11"],
                                                          params["s01"]))

    def _cli_generate(self, r: int) -> None:
        ps, tr, params = self.ps, self.tracer, self.params
        seed = bench_seed(self.seed, "trace-generate", r)
        spec = self.configs["dr_multi"].design
        ref = self.out / "trace-ref.edges"
        out = self.out / "trace-cli.edges"

        def in_process():
            with tr.span("cli.reference.generate") as span:
                graph = ps.generate(spec, np.random.default_rng(seed))
                with open(ref, "w", encoding="utf-8", newline="\n") as stream:
                    ps.write_edge_list(stream, graph, spec.family, spec.allow_multi)
            return span

        def cli():
            command = cli_command(
                "generate", "--n", str(spec.n), "--m", str(spec.m), "--gamma", str(spec.gamma),
                "--family", spec.family, "--multi", "--seed", str(seed), "--output", str(out))
            with tr.span("cli.generate") as span:
                proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"generate exit {proc.returncode}: {proc.stderr[-500:]}")
            return span

        reference = self.op("reference.generate", in_process)
        generated = self.op("cli.generate", cli)
        if reference and generated:
            self.add("cli.generate_overhead_s", seconds(generated) - seconds(reference))
            self.check(checks.check_identical, ref.read_bytes(), out.read_bytes(),
                       "CLI generate against in-process generate")
            self.check(checks.check_edge_list, out.read_text(encoding="utf-8"), n=spec.n,
                       m=spec.m, gamma=spec.gamma, family=spec.family, multi=True)
        for path in (ref, out):
            path.unlink(missing_ok=True)

    def round(self, r: int) -> None:
        with self.tracer.span("round"):
            for label in LABELS:
                self._trial(label, r)
            self._sweeps(r)
            self._cli_generate(r)

    def metrics(self) -> dict:
        samples = dict(self.samples)
        untraced = samples.pop("trace.untraced_s", None)
        med = {name: statistics.median(values) for name, values in samples.items()}
        for name in med:
            if name.startswith(("designs.edges.", "designs.repair")):
                med[name] = statistics.median_low(samples[name])
        if untraced:
            # A traced trial runs the untraced work plus the spans it opens: one for the
            # trial and one for each of its six stages.  Tracing slows trials/s by their
            # measured cost over the mean untraced trial time.
            added = len(TRIAL_SPANS) * self.tracer.span_cost_s()
            med["trace.overhead_pct"] = 100.0 * added * len(untraced) / sum(untraced)
        return med


def profile(workload: str, params: dict, seed: int, seconds_: float, out: Path) -> dict:
    # warm-up: one round on the tiny inputs, so first calls do not land in the spans
    Profile(workload, PARAMS["tiny"][workload], seed, out).round(0)
    prof = Profile(workload, params, seed, out)
    start = time.perf_counter()
    rounds = run_rounds(seconds_, prof.round)
    prof.tracer.dump(out / "trace.json")
    return {"wall_s": time.perf_counter() - start, "rounds": rounds, "attempted": prof.attempted,
            "failed": prof.failed, "raised": prof.raised, "errors": prof.errors,
            "metrics": prof.metrics()}
