"""Command-line surface: bound calculators, one-shot simulations, figure-style sweeps.

Exit codes: 0 success, 2 argument/config error, 3 runtime failure.  All file
output is UTF-8 with LF line endings and bit-exact reproducible from the
arguments (including the seed).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .decoder import counting_bound, required_queries
from .designs import (
    FAMILIES,
    DesignSpec,
    SimplificationError,
    generate,
    theoretical_gamma_window,
    write_edge_list,
)
from .experiment import (
    FAMILY_STREAM_IDS,
    TrialConfig,
    run_sweep,
    run_trial_detailed,
)
from .model import BernoulliPrior, ChannelMatrix, FixedPrior

__all__ = ["main", "entrypoint", "ConfigError", "parse_sweep_config", "SweepConfig"]

_WORKERS_ENV = "POOLEDSIM_WORKERS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

CSV_COLUMNS = (
    "family,multi,n,k,p,s11,s01,gamma,m,trials,"
    "success_rate,ci_low,ci_high,mean_overlap,failures,seed"
)


class ConfigError(ValueError):
    """Sweep config file did not parse; message carries line/field context."""


def _default_workers() -> int:
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"{_WORKERS_ENV} must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError(f"{_WORKERS_ENV} must be at least 1, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s11", type=float, default=1.0, help="P(read 1 | sent 1)")
    parser.add_argument("--s01", type=float, default=0.0, help="P(read 1 | sent 0)")


def cmd_bounds(args: argparse.Namespace) -> int:
    channel = ChannelMatrix(s11=args.s11, s01=args.s01)
    report = required_queries(args.n, args.p, args.eps, args.delta, channel)
    print(f"rate constant L = {report.rate!r}")
    print(f"query bound (real) = {report.bound!r}")
    print(f"m_min = {report.m_min}")
    print(f"m_floor = {report.m_floor}")
    print(f"threshold fraction at m_min = {report.threshold_fraction!r}")
    print(f"fp exponent at m_min = {report.fp_exponent!r}")
    print(f"fn exponent at m_min = {report.fn_exponent!r}")
    print(f"fp tail bound = {report.fp_tail!r}")
    print(f"fn tail bound = {report.fn_tail!r}")
    k = round(args.n * args.p)
    if k >= 2:
        print(f"counting bound m_PD (k = {k}) = {counting_bound(args.n, k)!r}")
    return EXIT_OK


def _write_atomic(path: Path, text: str) -> None:
    """Write UTF-8 text with LF endings through a temp file in the same directory.

    ``os.replace`` then swaps it in, so ``path`` holds either its old content
    or all of the new, and a failed write leaves no temp file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_generate(args: argparse.Namespace) -> int:
    spec = DesignSpec(
        n=args.n, m=args.m, gamma=args.gamma, family=args.family, allow_multi=args.multi
    )
    rng = np.random.default_rng(args.seed)
    graph = generate(spec, rng)
    buffer = io.StringIO()
    write_edge_list(buffer, graph, spec.family, spec.allow_multi)
    _write_atomic(Path(args.output), buffer.getvalue())
    return EXIT_OK


def _manifest(extra: dict) -> dict:
    return {"tool": "pooledsim", "version": __version__, **extra}


def cmd_simulate(args: argparse.Namespace) -> int:
    channel = ChannelMatrix(s11=args.s11, s01=args.s01)
    if (args.k is None) == (args.p is None):
        raise ValueError("exactly one of --k and --p must be given")
    prior = FixedPrior(args.k) if args.k is not None else BernoulliPrior(args.p)
    design = DesignSpec(
        n=args.n, m=args.m, gamma=args.gamma, family=args.family, allow_multi=args.multi
    )
    config = TrialConfig(
        design=design,
        prior=prior,
        channel=channel,
        epsilon=args.eps,
        base_seed=args.seed,
        p_for_threshold=args.p_threshold,
    )
    _warn_gamma_window(design, config.resolved_p())
    detail = run_trial_detailed(config, args.m, args.trial_index)
    result = detail.result
    report = {
        "manifest": _manifest(
            {
                "n": args.n,
                "m": args.m,
                "gamma": args.gamma,
                "family": args.family,
                "multi": args.multi,
                "k": args.k,
                "p": args.p,
                "p_for_threshold": config.resolved_p(),
                "s11": channel.s11,
                "s01": channel.s01,
                "epsilon": args.eps,
                "seed": args.seed,
                "trial_index": args.trial_index,
            },
        ),
        "trial": asdict(result),
        "recovery": {
            "hamming": result.hamming,
            "overlap": result.overlap,
            "eps_ok": result.eps_ok,
            "epsilon": args.eps,
        },
    }
    if args.dump_scores:
        report["scores"] = _array_field(detail.scores)
        report["centers"] = _array_field(detail.centers)
        report["thresholds"] = _array_field(detail.thresholds)
        report["estimate"] = _array_field(detail.estimate)
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def _array_field(arr: np.ndarray | None) -> list | None:
    return None if arr is None else arr.tolist()


def _warn_gamma_window(design: DesignSpec, p: float) -> None:
    lo, hi = theoretical_gamma_window(design.n, design.m, p)
    if not lo <= design.gamma <= hi:
        warnings.warn(
            f"gamma={design.gamma} lies outside the theoretical admissibility window "
            f"[{lo:.1f}, {hi:.1f}] for n={design.n}, m={design.m}, p={p}; "
            "desk-scale results may not reflect asymptotic guarantees",
            stacklevel=2,
        )


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep configuration parsed from a flat key = value file."""

    trial: TrialConfig
    m_grid: list[int]
    families: list[tuple[str, bool]]
    trials_per_point: int
    raw: dict[str, str]


def _parse_m_grid(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"m_grid range must be start:stop:step, got {text!r}")
        start, stop, step = (int(x) for x in parts)
        if step < 1 or stop < start:
            raise ConfigError(f"m_grid range {text!r} is empty or has non-positive step")
        values = list(range(start, stop + 1, step))
    else:
        values = [int(x) for x in text.split(",") if x.strip()]
    if not values or min(values) < 1:
        raise ConfigError(f"m_grid must list at least one query count, all >= 1, got {text!r}")
    return values


def _parse_families(text: str) -> list[tuple[str, bool]]:
    families: list[tuple[str, bool]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, variant = item.partition("/")
        variant = variant or "simple"
        if name not in FAMILIES:
            raise ConfigError(f"unknown family {name!r} in families (expected one of {FAMILIES})")
        if variant not in ("simple", "multi"):
            raise ConfigError(f"family variant must be 'simple' or 'multi', got {variant!r}")
        multi = variant == "multi"
        if (name, multi) not in FAMILY_STREAM_IDS:
            raise ConfigError(f"family {name!r} has no multi variant")
        families.append((name, multi))
    if not families:
        raise ConfigError("families must list at least one design family")
    return families


# Keys accepted in sweep config files (flat `key = value` lines), each with
# the parser of its value.
_SWEEP_KEYS = {
    "n": int, "k": int, "p": float, "gamma": int, "s11": float, "s01": float,
    "epsilon": float, "trials": int, "seed": int, "p_for_threshold": float,
    "m_grid": _parse_m_grid, "families": _parse_families,
}

_REQUIRED_SWEEP_KEYS = ("n", "gamma", "epsilon", "trials", "seed", "m_grid", "families")


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat sweep config format; raises ConfigError with line context."""
    raw: dict[str, str] = {}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        try:
            values[key] = _SWEEP_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
        raw[key] = value

    for key in _REQUIRED_SWEEP_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    if ("k" in raw) == ("p" in raw):
        raise ConfigError("exactly one of 'k' and 'p' must be set")

    m_grid = values["m_grid"]
    families = values["families"]
    # The design template's family/multi/m are placeholders; run_sweep
    # overrides them per sweep point.
    template_family, template_multi = families[0]
    try:
        design = DesignSpec(
            n=values["n"], m=m_grid[0], gamma=values["gamma"], family=template_family,
            allow_multi=template_multi,
        )
        trial = TrialConfig(
            design=design,
            prior=FixedPrior(values["k"]) if "k" in values else BernoulliPrior(values["p"]),
            channel=ChannelMatrix(s11=values.get("s11", 1.0), s01=values.get("s01", 0.0)),
            epsilon=values["epsilon"],
            base_seed=values["seed"],
            p_for_threshold=values.get("p_for_threshold"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if values["trials"] < 1:
        raise ConfigError(f"trials must be at least 1, got {values['trials']}")
    return SweepConfig(trial, m_grid, families, values["trials"], raw)


def _format_csv_float(value: float) -> str:
    return repr(float(value))


def cmd_sweep(args: argparse.Namespace) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_sweep_config(text)
    _warn_gamma_window(
        config.trial.design, config.trial.resolved_p()
    )
    workers = args.workers if args.workers is not None else _default_workers()
    rows = run_sweep(
        config.trial, config.m_grid, config.families, config.trials_per_point, workers=workers
    )
    prior = config.trial.prior
    k_field = str(prior.k) if isinstance(prior, FixedPrior) else ""
    p_field = _format_csv_float(config.trial.resolved_p())
    channel = config.trial.channel
    lines = [CSV_COLUMNS]
    for row in rows:
        lines.append(
            ",".join(
                (
                    row.family,
                    "true" if row.multi else "false",
                    str(config.trial.design.n),
                    k_field,
                    p_field,
                    _format_csv_float(channel.s11),
                    _format_csv_float(channel.s01),
                    str(config.trial.design.gamma),
                    str(row.m),
                    str(row.trials),
                    _format_csv_float(row.success_rate),
                    _format_csv_float(row.ci_low),
                    _format_csv_float(row.ci_high),
                    _format_csv_float(row.mean_overlap),
                    str(row.failures),
                    str(config.trial.base_seed),
                )
            )
        )
    output = Path(args.output)
    _write_atomic(output, "\n".join(lines) + "\n")
    manifest = _manifest({
        "config": config.raw,
        "resolved": {
            "n": config.trial.design.n,
            "gamma": config.trial.design.gamma,
            "p_for_threshold": config.trial.resolved_p(),
            "epsilon": config.trial.epsilon,
            "seed": config.trial.base_seed,
            "m_grid": config.m_grid,
            "families": [[f, m] for f, m in config.families],
            "trials_per_point": config.trials_per_point,
            "s11": channel.s11,
            "s01": channel.s01,
        },
        "output": output.name,
    })
    _write_atomic(
        output.with_name(output.name + ".manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pooledsim",
        description="Noisy pooled-data recovery: bounds, designs, simulations, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"pooledsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="print the query bounds and error exponents")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--p", type=float, required=True)
    bounds.add_argument("--eps", type=float, required=True)
    bounds.add_argument("--delta", type=float, required=True)
    _add_channel_args(bounds)
    bounds.set_defaults(func=cmd_bounds)

    gen = sub.add_parser("generate", help="write a pooling graph as a canonical edge list")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--gamma", type=int, required=True)
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--multi", action="store_true")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=cmd_generate)

    sim = sub.add_parser("simulate", help="run one trial and print a JSON report")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--gamma", type=int, required=True)
    sim.add_argument("--family", choices=FAMILIES, required=True)
    sim.add_argument("--multi", action="store_true")
    sim.add_argument("--k", type=int, default=None, help="fixed number of one-bits")
    sim.add_argument("--p", type=float, default=None, help="Bernoulli prior probability")
    sim.add_argument("--p-threshold", type=float, default=None, dest="p_threshold")
    sim.add_argument("--eps", type=float, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--trial-index", type=int, default=0)
    sim.add_argument("--dump-scores", action="store_true")
    _add_channel_args(sim)
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep described by a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--output", required=True)
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker processes (default: ${_WORKERS_ENV} or the usable CPU count)",
    )
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"pooledsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimplificationError, OSError) as exc:
        print(f"pooledsim: failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
