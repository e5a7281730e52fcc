import json
import os
import re
import shlex
from pathlib import Path

import pytest

import pooledsim.cli
import pooledsim.designs
import pooledsim.experiment
from pooledsim.cli import _write_atomic, main, parse_sweep_config, ConfigError
from pooledsim.designs import DesignSpec, SimplificationError, read_edge_list


SWEEP_CONFIG = """\
# small smoke sweep
n = 60
k = 4
gamma = 6
s11 = 1.0
s01 = 0.0
epsilon = 0.25
trials = 4
seed = 777
m_grid = 40,80,120
families = doubly_regular/simple, bernoulli
"""


# ------------------------------------------------------------------- bounds


def test_bounds_prints_frozen_m_min(capsys):
    code = main(
        ["bounds", "--n", "1000", "--p", "0.1", "--eps", "0.1", "--delta", "0.1",
         "--s11", "1", "--s01", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "m_min = 5119" in out
    assert "m_floor = 461" in out
    assert "counting bound" in out  # k = np = 100 >= 2


def test_bounds_rejects_p_zero(capsys):
    code = main(
        ["bounds", "--n", "1000", "--p", "0", "--eps", "0.1", "--delta", "0.1"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "p" in err


def test_bounds_rejects_flat_channel(capsys):
    code = main(
        ["bounds", "--n", "1000", "--p", "0.1", "--eps", "0.1", "--delta", "0.1",
         "--s11", "0.5", "--s01", "0.5"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "s11" in err


# ----------------------------------------------------------------- generate


def test_generate_deterministic_bytes_and_round_trip(tmp_path):
    args = ["generate", "--n", "4", "--m", "2", "--gamma", "2",
            "--family", "doubly_regular", "--seed", "1"]
    first = tmp_path / "a.edges"
    second = tmp_path / "b.edges"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    assert first.read_text().splitlines()[0] == "4 2 2 doubly_regular false"
    with open(first, encoding="utf-8") as stream:
        spec, graph = read_edge_list(stream)
    assert spec.n == 4 and spec.m == 2 and spec.gamma == 2
    assert int(graph.edge_mult.sum()) == 4


def explode(*args, **kwargs):
    raise SimplificationError("forced for the test")


def test_generate_simplification_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pooledsim.designs, "_repair_slots", explode)
    out_path = tmp_path / "never.edges"
    code = main(["generate", "--n", "10", "--m", "5", "--gamma", "4",
                 "--family", "doubly_regular", "--seed", "3",
                 "--output", str(out_path)])
    assert code == 3
    assert not out_path.exists()
    assert "failure" in capsys.readouterr().err


def test_generate_rejects_invalid_spec(tmp_path, capsys):
    code = main(["generate", "--n", "4", "--m", "2", "--gamma", "9",
                 "--family", "bernoulli", "--seed", "1",
                 "--output", str(tmp_path / "x.edges")])
    assert code == 2


def test_generate_rejects_the_removed_family(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code = main(["generate", "--n", "4", "--m", "2", "--gamma", "2",
                 "--family", "one_sided_regular", "--seed", "1", "--output", str(out)])
    assert code == 2
    assert "invalid choice: 'one_sided_regular'" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_a_missing_required_flag(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code = main(["generate", "--n", "4", "--m", "2", "--gamma", "2",
                 "--family", "bernoulli", "--output", str(out)])
    assert code == 2
    assert "the following arguments are required: --seed" in capsys.readouterr().err
    assert not out.exists()


def test_version_prints_the_version_and_returns_zero(capsys):
    code = main(["--version"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == f"pooledsim {pooledsim.__version__}\n"
    assert captured.err == ""


# ----------------------------------------------------------------- simulate


def simulate_args(extra=()):
    return [
        "simulate", "--n", "100", "--m", "400", "--gamma", "10",
        "--family", "doubly_regular", "--k", "5", "--eps", "0.2",
        "--seed", "99",
    ] + list(extra)


def test_simulate_reports_recovery(capsys):
    assert main(simulate_args()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recovery"]["eps_ok"] is True
    assert report["trial"]["failure"] is None
    assert report["manifest"]["version"]


def test_simulate_dump_scores_shapes(capsys):
    assert main(simulate_args(["--dump-scores"])) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["scores"]) == 100
    assert len(report["centers"]) == 100
    assert len(report["thresholds"]) == 100
    assert len(report["estimate"]) == 100


def recipe_args(m):
    """simulate at the README recipe (n = 1000, k = 6, gamma = 100), with every array dumped."""
    return ["simulate", "--n", "1000", "--m", str(m), "--gamma", "100",
            "--family", "doubly_regular", "--k", "6", "--eps", "0.25", "--seed", "7",
            "--s11", "0.8", "--s01", "0", "--dump-scores"]


def assert_ended_before_decoding(report, failure):
    assert report["trial"]["failure"] == failure
    assert report["recovery"]["eps_ok"] is False
    for name in ("scores", "centers", "thresholds", "estimate"):
        assert report[name] is None


def test_simulate_reports_an_undefined_threshold(capsys):
    # m = 10 is below m_floor, so the trial ends before the design is built
    with pytest.warns(UserWarning, match="admissibility window"):
        code = main(recipe_args(10))
    assert code == 0
    assert_ended_before_decoding(json.loads(capsys.readouterr().out), "threshold_undefined")


def test_simulate_reports_a_repair_failure_and_exits_zero(monkeypatch, capsys):
    # exit 3 is generate's: simulate tags the trial instead
    monkeypatch.setattr(pooledsim.experiment, "generate", explode)
    assert main(recipe_args(300)) == 0
    assert_ended_before_decoding(json.loads(capsys.readouterr().out), "simplification_failed")


def test_simulate_identical_json(capsys):
    assert main(simulate_args()) == 0
    first = capsys.readouterr().out
    assert main(simulate_args()) == 0
    second = capsys.readouterr().out
    assert first == second


def test_simulate_requires_exactly_one_prior(capsys):
    code = main(simulate_args(["--p", "0.05"]))
    assert code == 2


# -------------------------------------------------------------------- sweep


def write_config(tmp_path, text=SWEEP_CONFIG):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return path


def test_sweep_csv_shape_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--output", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == (
        "family,multi,n,k,p,s11,s01,gamma,m,trials,"
        "success_rate,ci_low,ci_high,mean_overlap,failures,seed"
    )
    assert len(lines) == 1 + 6  # 2 families x 3 grid points
    # rows sorted by (family, multi, m)
    keys = [tuple(line.split(",")[:2]) + (int(line.split(",")[8]),) for line in lines[1:]]
    assert keys == sorted(keys)
    assert (tmp_path / "one.csv.manifest.json").exists()
    manifest = json.loads((tmp_path / "one.csv.manifest.json").read_text())
    assert manifest["resolved"]["seed"] == 777


def test_sweep_rejects_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG + "bogus = 1\n")
    code = main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bogus" in err
    assert "line" in err


def test_sweep_rejects_missing_required_key(tmp_path, capsys):
    broken = SWEEP_CONFIG.replace("gamma = 6\n", "")
    cfg = write_config(tmp_path, broken)
    code = main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize(
    "old, new",
    [("40,80,120", "100,100"),
     ("doubly_regular/simple, bernoulli", "doubly_regular, doubly_regular/simple")],
    ids=["m_grid", "families"],
)
def test_sweep_rejects_repeated_sweep_points(tmp_path, capsys, old, new):
    # a repeated point would count the same seeded trials again in its row
    cfg = write_config(tmp_path, SWEEP_CONFIG.replace(old, new))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), "--workers", "1"]) == 2
    assert "repeats" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_sweep_rejects_conflicting_priors(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG + "p = 0.05\n")
    code = main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2


def test_sweep_default_workers_are_affinity_then_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    seen = []
    monkeypatch.setattr(pooledsim.cli, "run_sweep", lambda *_, workers: seen.append(workers) or [])
    argv = ["sweep", "--config", str(write_config(tmp_path)), "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(argv) == 0
    assert seen == [2, 7]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(cfg), "--output", str(out), "--workers", value])
    assert code == 2
    assert f"--workers must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ config parser


def test_parse_sweep_config_grid_syntax():
    config = parse_sweep_config(SWEEP_CONFIG.replace("40,80,120", "50:200:50"))
    assert config.m_grid == [50, 100, 150, 200]
    assert config.families == [("doubly_regular", False), ("bernoulli", False)]
    assert config.trial.resolved_p() == pytest.approx(4 / 60)


def test_parse_sweep_config_family_variants():
    config = parse_sweep_config(
        SWEEP_CONFIG.replace(
            "families = doubly_regular/simple, bernoulli",
            "families = doubly_regular/multi",
        )
    )
    assert config.families == [("doubly_regular", True)]
    with pytest.raises(ConfigError):
        parse_sweep_config(
            SWEEP_CONFIG.replace(
                "families = doubly_regular/simple, bernoulli",
                "families = bernoulli/multi",
            )
        )


@pytest.mark.parametrize("item", ["doubly_regular / multi", "doubly_regular /multi"])
def test_parse_sweep_config_family_items_ignore_blanks_around_the_slash(item):
    config = parse_sweep_config(SWEEP_CONFIG.replace("doubly_regular/simple, bernoulli", item))
    assert config.families == [("doubly_regular", True)]


def test_parse_sweep_config_line_numbers_in_errors():
    broken = "n = 60\nnope\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_sweep_config(broken)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("40,80,120", "40:120", "line 10: key 'm_grid': m_grid range must be start:stop:step"),
        ("40,80,120", "120:40:10", "is empty or has non-positive step"),
        ("40,80,120", "40:120:0", "is empty or has non-positive step"),
        ("40,80,120", ",", "at least one query count"),
        ("40,80,120", "40,abc", r"line 10: key 'm_grid': invalid literal for int\(\)"),
        ("bernoulli\n", "nope\n", "line 11: key 'families': unknown family 'nope'"),
        ("bernoulli\n", "one_sided_regular\n",
         "line 11: key 'families': unknown family 'one_sided_regular'"),
        ("bernoulli\n", "bernoulli/dense\n", "variant must be 'simple' or 'multi'"),
        ("bernoulli\n", "bernoulli/\n", "line 11: key 'families': family variant must be "
         "'simple' or 'multi', got ''$"),
        ("doubly_regular/simple, bernoulli", "doubly_regular/", "line 11: key 'families': "
         "family variant must be 'simple' or 'multi', got ''$"),
        ("doubly_regular/simple, bernoulli", ",", "at least one design family"),
        ("gamma = 6", "gamma =", "line 4: key 'gamma' has no value"),
        ("gamma = 6", "gamma = six", "line 4: key 'gamma': invalid literal for int"),
        ("s11 = 1.0", "s11 = high", "line 5: key 's11': could not convert"),
        ("k = 4", "k = 0", r"decoder prior must lie in \(0, 1\)"),
        ("trials = 4", "trials = 0", "trials must be at least 1"),
        ("40,80,120", "40,0", r"line 10: key 'm_grid': .*all >= 1, got '40,0'"),
        ("40,80,120", "0:100:50", r"line 10: key 'm_grid': .*all >= 1, got '0:100:50'"),
        ("40,80,120", "40,80,40", "line 10: key 'm_grid': m_grid repeats a query count"),
        ("bernoulli\n", "doubly_regular\n", "line 11: key 'families': families repeats"),
    ],
    ids=[
        "range-shape", "range-empty", "range-step", "grid-empty", "grid-non-integer",
        "unknown-family", "removed-family", "bad-variant", "empty-variant",
        "empty-variant-after-family",
        "families-empty", "empty-value", "int-non-numeric",
        "float-non-numeric", "prior-rejected", "zero-trials", "grid-zero", "range-from-zero",
        "grid-repeat", "families-repeat",
    ],
)
def test_parse_sweep_config_rejects_bad_values(old, new, message):
    assert old in SWEEP_CONFIG
    with pytest.raises(ConfigError, match=message):
        parse_sweep_config(SWEEP_CONFIG.replace(old, new))


def test_parse_sweep_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_sweep_config(SWEEP_CONFIG + "n = 61\n")


# ------------------------------------------------------------- gamma window


def test_simulate_warns_outside_gamma_window(capsys):
    # gamma = 2 sits below the asymptotic admissibility window at these sizes
    args = [
        "simulate", "--n", "100", "--m", "400", "--gamma", "2",
        "--family", "doubly_regular", "--k", "5", "--eps", "0.2", "--seed", "1",
    ]
    with pytest.warns(UserWarning, match="admissibility window"):
        assert main(args) == 0
    capsys.readouterr()


def test_simulate_inside_window_is_quiet(recwarn):
    assert main(simulate_args()) == 0
    assert not [w for w in recwarn if "admissibility" in str(w.message)]


def gamma_window(m):
    """The [lo, hi] window that the warning for gamma = 1 at n = 1000, p = 0.01 names."""
    design = DesignSpec(n=1000, m=m, gamma=1, family="doubly_regular")
    with pytest.warns(UserWarning) as record:
        pooledsim.cli._warn_gamma_window(design, 0.01)
    lo, hi = re.search(r"\[([\d.]+), ([\d.]+)\]", str(record[0].message)).groups()
    return float(lo), float(hi)


@pytest.mark.parametrize("m_grid", ["500,20", "20,500"])
def test_sweep_checks_gamma_window_at_the_smallest_m(tmp_path, monkeypatch, m_grid):
    # n = 1000, k = 6: the window's lower bound is 128.9 at m = 20 and 25.8 at m = 500
    text = (SWEEP_CONFIG.replace("n = 60", "n = 1000").replace("k = 4", "k = 6")
            .replace("gamma = 6", "gamma = 100").replace("40,80,120", m_grid))
    monkeypatch.setattr(pooledsim.cli, "run_sweep", lambda *args, **kwargs: [])
    with pytest.warns(UserWarning, match=r"\[128\.9, 707\.9\] for n=1000, m=20,"):
        assert main(["sweep", "--config", str(write_config(tmp_path, text)),
                     "--output", str(tmp_path / "x.csv"), "--workers", "1"]) == 0


def test_theoretical_gamma_window_monotone_in_m():
    (lo1, hi1), (lo2, hi2) = gamma_window(100), gamma_window(400)
    assert (lo1, lo2) == (44.7, 22.3)  # n^0.05 * sqrt(n / (m p))
    assert hi1 == hi2 == pytest.approx(1000**0.95, abs=0.05)


# ------------------------------------------------------------ atomic output


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    target = tmp_path / "results.csv"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        with _write_atomic(target) as stream:
            stream.write("new\n\ud800")  # a lone surrogate has no UTF-8 form
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


def test_generate_failure_while_streaming_keeps_old_file_and_leaves_no_temp(
    tmp_path, monkeypatch
):
    class FailingStream:
        """Passes two writes on to the temp file, the header and the first chunk, then raises."""

        def __init__(self, stream):
            self.stream, self.left = stream, 2

        def write(self, text):
            self.stream.write(text)
            self.left -= 1
            if not self.left:
                raise RuntimeError("forced for the test")

    write_edge_list = pooledsim.cli.write_edge_list
    monkeypatch.setattr(pooledsim.cli, "write_edge_list",
                        lambda stream, *args: write_edge_list(FailingStream(stream), *args))
    target = tmp_path / "graph.edges"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="forced for the test"):
        main(["generate", "--n", "40", "--m", "20", "--gamma", "10",
              "--family", "doubly_regular", "--seed", "1", "--output", str(target)])
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["graph.edges"]


def test_sweep_fails_on_unwritable_output_before_the_first_trial(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("run_sweep ran although the output cannot be written")

    monkeypatch.setattr(pooledsim.cli, "run_sweep", never)
    out = tmp_path / "missing" / "x.csv"
    code = main(["sweep", "--config", str(write_config(tmp_path)), "--output", str(out),
                 "--workers", "1"])
    assert code == 3
    assert "pooledsim: failure:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_sweep_failed_manifest_write_keeps_the_old_csv(tmp_path, capsys):
    # A directory in the manifest's place makes its rename fail after the sweep.
    config = SWEEP_CONFIG.replace("trials = 4", "trials = 2").replace("40,80,120", "40")
    cfg = write_config(tmp_path, config.replace("doubly_regular/simple, bernoulli", "bernoulli"))
    out = tmp_path / "out.csv"
    out.write_bytes(b"old rows\n")
    (tmp_path / "out.csv.manifest.json").mkdir()
    code = main(["sweep", "--config", str(cfg), "--output", str(out), "--workers", "1"])
    assert code == 3
    assert "pooledsim: failure:" in capsys.readouterr().err
    assert out.read_bytes() == b"old rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.csv", "out.csv.manifest.json", "sweep.cfg"
    ]


# ------------------------------------------------------------- exit codes


def test_bounds_prints_no_counting_bound_when_k_is_n(capsys):
    code = main(["bounds", "--n", "10", "--p", "0.99", "--eps", "0.1", "--delta", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m_min = " in out
    assert "counting bound" not in out  # k = round(n p) = 10 = n


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_trial_detailed", simulate_args()),
        ("run_sweep", ["sweep", "--config", "{cfg}", "--output", "{out}", "--workers", "1"]),
        ("generate", ["generate", "--n", "4", "--m", "2", "--gamma", "2",
                      "--family", "doubly_regular", "--seed", "1", "--output", "{out}"]),
    ],
)
def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch, name, argv):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(pooledsim.cli, name, boom)
    out = tmp_path / "out"
    argv = [arg.format(cfg=write_config(tmp_path), out=out) for arg in argv]
    with pytest.raises(ValueError, match="boom") as excinfo:
        main(argv)
    assert excinfo.type is ValueError
    assert not out.exists()


def test_generate_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code = main(["generate", "--n", "4", "--m", "2", "--gamma", "2",
                 "--family", "doubly_regular", "--seed", "-1", "--output", str(out)])
    assert code == 2
    assert "pooledsim: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["generate", "simulate", "sweep"])
def test_every_subcommand_rejects_a_seed_outside_64_bits(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--n", "4", "--m", "2", "--gamma", "2",
                     "--family", "doubly_regular", "--seed", str(seed), "--output", str(out)],
        "simulate": [*simulate_args()[:-2], "--seed", str(seed)],
        "sweep": ["sweep", "--config",
                  str(write_config(tmp_path, SWEEP_CONFIG.replace("777", str(seed)))),
                  "--output", str(out), "--workers", "1"],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"pooledsim: error: seed must lie in [0, 2**64), got {seed}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("index", [-1, 2**64])
def test_simulate_rejects_a_trial_index_outside_64_bits(capsys, index):
    # 2**64 would alias trial 0's seed, since the seed mix reads it mod 2**64.
    code = main(simulate_args(["--trial-index", str(index)]))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"pooledsim: error: trial index must lie in [0, 2**64), got {index}" in captured.err


def test_sweep_rejects_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(SWEEP_CONFIG.encode("utf-8") + b"# \xff\n")
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(cfg), "--output", str(out)])
    assert code == 2
    assert "utf-8" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_any_family_that_does_not_fit(tmp_path, capsys):
    # the first family takes multi-edges, the second cannot fit gamma > n
    text = SWEEP_CONFIG.replace("gamma = 6", "gamma = 90").replace(
        "doubly_regular/simple, bernoulli", "doubly_regular/multi, bernoulli"
    )
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(write_config(tmp_path, text)), "--output", str(out)])
    assert code == 2
    assert "gamma=90" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_the_removed_threshold_prior(capsys):
    code = main(simulate_args(["--p-threshold", "0.1"]))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --p-threshold 0.1" in captured.err


def test_sweep_rejects_the_removed_threshold_prior_key(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG + "p_for_threshold = 0.2\n")
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(cfg), "--output", str(out)])
    assert code == 2
    assert "line 12: unknown key 'p_for_threshold'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_more_ones_than_agents(capsys):
    code = main(simulate_args(["--k", "500"]))
    assert code == 2
    assert "fixed one-count 500 exceeds n=100" in capsys.readouterr().err


def test_simulate_rejects_nan_epsilon(capsys):
    code = main(simulate_args(["--eps", "nan"]))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "epsilon must be positive, got nan" in captured.err


def test_sweep_rejects_nan_epsilon(tmp_path, capsys):
    text = SWEEP_CONFIG.replace("epsilon = 0.25", "epsilon = nan")
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(write_config(tmp_path, text)), "--output", str(out)])
    assert code == 2
    assert "epsilon must be positive, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_infinite_epsilon(capsys):
    code = main(simulate_args(["--eps", "inf"]))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "epsilon must be finite, got inf" in captured.err


def test_sweep_rejects_infinite_epsilon(tmp_path, capsys):
    text = SWEEP_CONFIG.replace("epsilon = 0.25", "epsilon = inf")
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(write_config(tmp_path, text)), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "epsilon must be finite, got inf" in captured.err
    assert not out.exists()


# ------------------------------------------------------------ README examples


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading):
    """The first fenced block after ``heading`` in the README, as text."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in readme_block("## CLI").replace("\\\n", " ").splitlines()
        if line.startswith("pooledsim ")
    ]
    run = [argv[1:] for argv in commands if argv[1] != "sweep"]  # sweep is timed in perfbench
    assert [argv[0] for argv in run] == ["bounds", "generate", "simulate"]
    for argv in run:
        assert main(argv) == 0, argv
    assert "m_min = 5119" in capsys.readouterr().out
    assert (tmp_path / "graph.edges").exists()


def test_readme_sweep_config_parses():
    config = parse_sweep_config(readme_block("### Sweep config format"))
    assert config.m_grid == list(range(50, 501, 50))
    assert len(config.families) == 3
