"""Release-hygiene checks: docs, exports, and references stay consistent."""

import importlib
import os
import pkgutil
import re

import pytest

import repro

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))


def _all_modules():
    names = []
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module_info.name)
    return names


@pytest.mark.parametrize("module_name", _all_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.nn", "repro.data", "repro.core", "repro.fl",
     "repro.models", "repro.algorithms", "repro.analysis", "repro.experiments",
     "repro.obs", "repro.ckpt", "repro.serve"],
)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


def test_readme_referenced_paths_exist():
    with open(os.path.join(REPO_ROOT, "README.md")) as handle:
        readme = handle.read()
    for path in re.findall(r"`(examples/[\w./]+\.py)`", readme):
        assert os.path.exists(os.path.join(REPO_ROOT, path)), path


def test_design_referenced_paths_exist():
    """Every backticked ``dir/file.py`` in DESIGN.md names a file, read from
    the repo root, ``src/`` or ``src/repro/``."""
    with open(os.path.join(REPO_ROOT, "DESIGN.md")) as handle:
        design = handle.read()
    paths = re.findall(r"`([\w.-]+/[\w./-]+\.py)`", design)
    assert paths
    bases = (REPO_ROOT, os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "src", "repro"))
    for path in paths:
        assert any(os.path.exists(os.path.join(base, path)) for base in bases), path


def test_core_docs_exist_and_are_substantial():
    for name, minimum in [("README.md", 3000), ("DESIGN.md", 5000), ("EXPERIMENTS.md", 5000)]:
        path = os.path.join(REPO_ROOT, name)
        assert os.path.exists(path), name
        assert os.path.getsize(path) > minimum, f"{name} suspiciously small"


def test_version_is_consistent():
    import tomllib

    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)
    assert project["project"]["version"] == repro.__version__


def test_algorithm_registry_matches_cli_choices():
    from repro.algorithms import ALGORITHMS
    from repro.cli import _build_parser

    parser = _build_parser()
    # Extract the run subparser's --algorithm choices.
    run_parser = parser._subparsers._group_actions[0].choices["run"]
    for action in run_parser._actions:
        if action.dest == "algorithm":
            assert set(action.choices) == set(ALGORITHMS)
            break
    else:  # pragma: no cover
        pytest.fail("run subcommand lost its --algorithm flag")
