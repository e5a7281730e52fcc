"""Command-line surface: bound calculators, one-shot simulations, figure-style sweeps.

Exit codes: 0 success, 2 invalid flags or config file (an argparse usage error or a
:class:`ConfigError`), 3 I/O error or swap-repair failure in ``generate`` (``simulate``
and ``sweep`` tag such a trial instead); any other exception is a bug and propagates.
All file output is UTF-8 with LF line endings and bit-exact reproducible from the
arguments (including the seed).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .decoder import counting_bound, required_queries
from .designs import (
    FAMILIES,
    DesignSpec,
    SimplificationError,
    generate,
    write_edge_list,
)
from .experiment import (
    FAMILY_STREAM_IDS,
    TrialConfig,
    _check_seed,
    _usable_cpus,
    run_sweep,
    run_trial_detailed,
)
from .model import BernoulliPrior, ChannelMatrix, FixedPrior

__all__ = ["main", "entrypoint", "ConfigError", "parse_sweep_config", "SweepConfig"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

CSV_COLUMNS = (
    "family", "multi", "n", "k", "p", "s11", "s01", "gamma", "m", "trials",
    "success_rate", "ci_low", "ci_high", "mean_overlap", "failures", "seed",
)


class ConfigError(ValueError):
    """Invalid user input (flags, config file); exit code 2."""


@contextmanager
def _user_input():
    """Report a ValueError raised while reading user input as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s11", type=float, default=1.0, help="P(read 1 | sent 1)")
    parser.add_argument("--s01", type=float, default=0.0, help="P(read 1 | sent 0)")


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--gamma", type=int, required=True)
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--multi", action="store_true")
    parser.add_argument("--seed", type=int, required=True)


def _design(args: argparse.Namespace) -> DesignSpec:
    return DesignSpec(
        n=args.n, m=args.m, gamma=args.gamma, family=args.family, allow_multi=args.multi
    )


def _trial_config(values: dict, design: DesignSpec) -> TrialConfig:
    """The TrialConfig that sweep-config keys (or simulate's flags) describe."""
    k, p = values.get("k"), values.get("p")
    if (k is None) == (p is None):
        raise ConfigError("exactly one of k and p must be set")
    return TrialConfig(
        design=design,
        prior=FixedPrior(k) if k is not None else BernoulliPrior(p),
        channel=ChannelMatrix(s11=values.get("s11", 1.0), s01=values.get("s01", 0.0)),
        epsilon=values["epsilon"],
        base_seed=values["seed"],
    )


def cmd_bounds(args: argparse.Namespace) -> int:
    with _user_input():
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
    if 2 <= k < args.n:
        print(f"counting bound m_PD (k = {k}) = {counting_bound(args.n, k)!r}")
    return EXIT_OK


@contextmanager
def _write_atomic(path: Path):
    """Yield a UTF-8 text stream with LF endings on a temp file in ``path``'s directory.

    ``os.replace`` swaps it in when the block succeeds, so ``path`` holds either its
    old content or all of the new; a failure or interrupt leaves no temp file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as stream:
            yield stream
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_generate(args: argparse.Namespace) -> int:
    with _user_input():
        spec = _design(args)
        rng = np.random.default_rng(_check_seed(args.seed))
    graph = generate(spec, rng)
    with _write_atomic(Path(args.output)) as stream:
        write_edge_list(stream, graph, spec.family, spec.allow_multi)
    return EXIT_OK


def _manifest(extra: dict) -> dict:
    return {"tool": "pooledsim", "version": __version__, **extra}


def cmd_simulate(args: argparse.Namespace) -> int:
    with _user_input():
        config = _trial_config(vars(args), _design(args))
        _check_seed(args.trial_index, "trial index")
    _warn_gamma_window(config.design, config.resolved_p())
    detail = run_trial_detailed(config, args.m, args.trial_index)
    result = detail.result
    flags = ("n", "m", "gamma", "family", "multi", "k", "p", "s11", "s01", "epsilon", "seed",
             "trial_index")
    manifest = {flag: getattr(args, flag) for flag in flags}
    report = {
        "manifest": _manifest({**manifest, "p_for_threshold": config.resolved_p()}),
        "trial": asdict(result),
        "recovery": {
            "hamming": result.hamming,
            "overlap": result.overlap,
            "eps_ok": result.eps_ok,
            "epsilon": args.epsilon,
        },
    }
    if args.dump_scores:
        for name in ("scores", "centers", "thresholds", "estimate"):
            array = getattr(detail, name)
            report[name] = None if array is None else array.tolist()
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def _warn_gamma_window(design: DesignSpec, p: float) -> None:
    """Warn when gamma lies outside the window [n^0.05 * sqrt(n / (m p)), n^0.95].

    Desk-scale runs legitimately sit outside this asymptotic regime, so this
    warns rather than rejects.
    """
    lo, hi = design.n**0.05 * math.sqrt(design.n / (design.m * p)), design.n**0.95
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
    if len(set(values)) < len(values):
        raise ConfigError(f"m_grid repeats a query count, got {text!r}")
    return values


def _parse_families(text: str) -> list[tuple[str, bool]]:
    families: list[tuple[str, bool]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, slash, variant = item.partition("/")
        name, variant = name.strip(), variant.strip() if slash else "simple"
        if name not in FAMILIES:
            raise ConfigError(f"unknown family {name!r} in families (expected one of {FAMILIES})")
        if variant not in ("simple", "multi"):
            raise ConfigError(f"family variant must be 'simple' or 'multi', got {variant!r}")
        multi = variant == "multi"
        if (name, multi) not in FAMILY_STREAM_IDS:
            raise ConfigError(f"family {name!r} has no multi variant")
        if (name, multi) in families:
            raise ConfigError(f"families repeats {name}/{variant}")
        families.append((name, multi))
    if not families:
        raise ConfigError("families must list at least one design family")
    return families


# Keys accepted in sweep config files (flat `key = value` lines), each with
# the parser of its value.
_SWEEP_KEYS = {
    "n": int, "k": int, "p": float, "gamma": int, "s11": float, "s01": float,
    "epsilon": float, "trials": int, "seed": int,
    "m_grid": _parse_m_grid, "families": _parse_families,
}

_REQUIRED_SWEEP_KEYS = ("n", "gamma", "epsilon", "trials", "seed", "m_grid", "families")


@_user_input()
def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat sweep config format; raises ConfigError with line context."""
    raw: dict[str, str] = {}
    values: dict = {}
    # Lines end where a text file's do (LF, CRLF, CR), not at str.splitlines' other breaks.
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
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

    m_grid = values["m_grid"]
    families = values["families"]
    # One spec per family checks them all; the first is the template, whose
    # family/multi/m run_sweep overrides per sweep point.
    designs = [
        DesignSpec(n=values["n"], m=m_grid[0], gamma=values["gamma"], family=family,
                   allow_multi=multi)
        for family, multi in families
    ]
    trial = _trial_config(values, designs[0])
    if values["trials"] < 1:
        raise ConfigError(f"trials must be at least 1, got {values['trials']}")
    return SweepConfig(trial, m_grid, families, values["trials"], raw)


def _csv_field(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    with _user_input():
        config = parse_sweep_config(Path(args.config).read_text(encoding="utf-8"))
    trial, channel = config.trial, config.trial.channel
    # The window's lower bound is highest at the smallest m; its upper bound is fixed.
    _warn_gamma_window(replace(trial.design, m=min(config.m_grid)), trial.resolved_p())
    workers = args.workers if args.workers is not None else _usable_cpus()
    shared = {
        "n": trial.design.n, "gamma": trial.design.gamma, "seed": trial.base_seed,
        "s11": channel.s11, "s01": channel.s01,
    }
    point = {
        **shared,
        "k": trial.prior.k if isinstance(trial.prior, FixedPrior) else None,
        "p": trial.resolved_p(),
    }
    output = Path(args.output)
    manifest = _manifest({
        "config": config.raw,
        "resolved": {
            **shared,
            "p_for_threshold": trial.resolved_p(),
            "epsilon": trial.epsilon,
            "m_grid": config.m_grid,
            "families": [[f, m] for f, m in config.families],
            "trials_per_point": config.trials_per_point,
        },
        "output": output.name,
    })
    # Both are opened before the first trial, so an unwritable output fails fast, and
    # the manifest is renamed into place first: the CSV is replaced only once it is.
    with (
        _write_atomic(output) as stream,
        _write_atomic(output.with_name(output.name + ".manifest.json")) as manifest_stream,
    ):
        rows = run_sweep(
            trial, config.m_grid, config.families, config.trials_per_point, workers=workers
        )
        manifest_stream.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fields = {**point, **asdict(row)}
            stream.write(",".join(_csv_field(fields[column]) for column in CSV_COLUMNS) + "\n")
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
    _add_design_args(gen)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=cmd_generate)

    # simulate's flags take the sweep-config keys as dest, for _trial_config.
    sim = sub.add_parser("simulate", help="run one trial and print a JSON report")
    _add_design_args(sim)
    sim.add_argument("--k", type=int, default=None, help="fixed number of one-bits")
    sim.add_argument("--p", type=float, default=None, help="Bernoulli prior probability")
    sim.add_argument("--eps", type=float, required=True, dest="epsilon")
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
        help="worker processes (default: the usable CPU count)",
    )
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --help and --version
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"pooledsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimplificationError, OSError) as exc:
        print(f"pooledsim: failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
