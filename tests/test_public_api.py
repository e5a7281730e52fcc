"""The package's public names: what the README and the benchmark call, and who uses them."""
import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pooledsim
import pooledsim.cli

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


ROOT = Path(__file__).resolve().parents[1]
MODULES = ["pooledsim", *(f"pooledsim.{m.name}" for m in pkgutil.iter_modules(pooledsim.__path__))]


def _src_references() -> set[str]:
    """Names that code in ``src/`` reads: loads, attributes and keyword arguments.

    Definitions, imports and ``__all__`` strings are not reads, so a name
    counts only where the package itself uses it.
    """
    used: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
    return used


def _public_surface():
    """``module.name`` and ``module.Class.attribute`` for every public name, member and field."""
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            yield f"{module_name}.{name}", name
            obj = getattr(module, name)
            if inspect.isclass(obj) and obj.__module__ == module_name:
                attrs = set(vars(obj))
                if dataclasses.is_dataclass(obj):
                    attrs.update(field.name for field in dataclasses.fields(obj))
                for attr in sorted(attrs):
                    if not attr.startswith("_"):
                        yield f"{module_name}.{name}.{attr}", attr


def test_every_public_name_has_a_user_outside_the_tests():
    used = _src_references()
    outside = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [ROOT / "README.md", *(ROOT / "perfbench").rglob("*.py")]
    )
    test_only = [
        qualified for qualified, name in _public_surface()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert test_only == [], "public names that only the tests use"


def _cli_settings():
    """Every option string of the parser and its subcommands but ``-h``/``--help``, and every
    sweep-config key as ``key =``."""
    parser = pooledsim.cli.build_parser()
    subcommands = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    for command in (parser, *subcommands.choices.values()):
        for action in command._actions:
            yield from (opt for opt in action.option_strings if opt not in ("-h", "--help"))
    yield from (f"{key} =" for key in pooledsim.cli._SWEEP_KEYS)


def test_every_cli_setting_is_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    undocumented = {
        setting for setting in _cli_settings()
        if not re.search(rf"(?<![\w-]){re.escape(setting)}(?![\w-])", readme)
    }
    assert undocumented == set(), "flags or sweep-config keys that the README never names"


def _benchmark_imports() -> set[tuple[str, tuple[str, ...]]]:
    """``(module, attribute path)`` for every name that ``perfbench/*.py`` takes from pooledsim.

    Covers ``import pooledsim[.mod] [as y]``, ``from pooledsim[.mod] import x [as y]``
    and attribute chains such as ``ps.x.y`` or ``self.ps.x`` on a module alias.
    """
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pooledsim":
                        found.add((alias.name, ()))
                        aliases[alias.asname or "pooledsim"] = (
                            alias.name if alias.asname else "pooledsim"
                        )
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pooledsim"):
                found.update((node.module, (alias.name,)) for alias in node.names)
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if not chain or not isinstance(node, ast.Name):
                continue
            chain.insert(0, node.id)
            root = next((i for i, part in enumerate(chain[:-1]) if part in aliases), None)
            if root is not None:
                found.add((aliases[chain[root]], tuple(chain[root + 1:])))
    return found


def test_every_name_the_benchmark_imports_resolves():
    imports = _benchmark_imports()
    assert {path[0] for _, path in imports if path} >= {"compute_score_vector", "eps_recovery"}
    missing = []
    for module, path in sorted(imports):
        obj = importlib.import_module(module)
        for depth, attr in enumerate(path):
            if not hasattr(obj, attr):
                missing.append(".".join([module, *path[: depth + 1]]))
                break
            obj = getattr(obj, attr)
    assert missing == [], "names the benchmark takes from pooledsim that do not exist"
