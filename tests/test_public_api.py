"""The package's top-level names: what the README and the benchmark call."""
import re
from pathlib import Path

import pooledsim

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "__version__",
    "BernoulliPrior",
    "ChannelMatrix",
    "DesignSpec",
    "FixedPrior",
    "SimplificationError",
    "TrialConfig",
    "compute_score_vector",
    "decode",
    "derive_seed",
    "eps_recovery",
    "generate",
    "read_edge_list",
    "required_queries",
    "run_queries",
    "run_sweep",
    "run_trial",
    "run_trial_detailed",
    "sample_ground_truth",
    "write_edge_list",
]


def test_public_names_resolve_and_readme_quick_start_runs(capsys):
    assert pooledsim.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(pooledsim, name) is not None
    # the benchmark reads the family stream ids through the package
    assert pooledsim.experiment.FAMILY_STREAM_IDS

    quick_start = re.search(
        r"## Library quick start\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S
    )
    namespace: dict = {}
    exec(quick_start.group(1), namespace)
    capsys.readouterr()
    assert namespace["report"].m_min == 5119
