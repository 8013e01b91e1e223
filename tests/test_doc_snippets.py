"""The examples and the Python in the docs call ``run_experiment`` and
``make_algorithm`` with keywords they have.

CI runs ``examples/*.py`` to completion on one Python version only, and
nothing runs the fenced snippets of ``README.md`` and ``docs/*.md``, so
a renamed or deleted keyword would leave them stale without a tier-1
failure.  This test parses them with ``ast``
(fenced ``python`` blocks, and ``python - <<'PY'`` heredocs inside shell
blocks) and checks every ``run_experiment(...)`` call's keywords against
the function's signature, and every ``make_algorithm("<name>", ...)``
call's against that algorithm class's ``__init__``.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.algorithms import ALGORITHMS
from repro.experiments.facade import run_experiment

ROOT = Path(__file__).resolve().parent.parent
_FENCE = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```", re.M | re.S)
_HEREDOC = re.compile(r"<<\s*'?(\w+)'?\n(.*?)^\1$", re.M | re.S)


def _snippets(path: Path) -> list[str]:
    text = path.read_text()
    if path.suffix == ".py":
        return [text]
    out = []
    for lang, body in _FENCE.findall(text):
        if lang in ("python", "py"):
            out.append(body)
        elif lang in ("bash", "sh", "shell", ""):
            out.extend(code for _tag, code in _HEREDOC.findall(body))
    return out


def _sources() -> list[Path]:
    return [
        *sorted((ROOT / "examples").glob("*.py")),
        ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md")),
    ]


def _calls(tree: ast.AST, function: str):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == function:
            yield node


def _make_algorithm_problems(tree: ast.AST) -> list[str]:
    """Keywords a ``make_algorithm`` call with a literal name passes that
    the named class's ``__init__`` does not take (a name built at run
    time, ``make_algorithm(name, ...)``, is not checked)."""
    problems = []
    for call in _calls(tree, "make_algorithm"):
        if not call.args or not isinstance(call.args[0], ast.Constant):
            continue
        name = str(call.args[0].value).lower()
        if name not in ALGORITHMS:
            problems.append(f"line {call.lineno}: unknown algorithm {name!r}")
            continue
        accepted = set(inspect.signature(ALGORITHMS[name].__init__).parameters)
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg not in accepted - {"self"}:
                problems.append(f"line {call.lineno}: {name} {keyword.arg}=")
    return problems


@pytest.mark.parametrize("path", _sources(), ids=lambda p: str(p.relative_to(ROOT)))
def test_run_experiment_calls_use_real_keywords(path):
    accepted = set(inspect.signature(run_experiment).parameters)
    problems = []
    for snippet in _snippets(path):
        tree = ast.parse(snippet)  # a snippet that does not parse is stale too
        for call in _calls(tree, "run_experiment"):
            for keyword in call.keywords:
                if keyword.arg is not None and keyword.arg not in accepted:
                    problems.append(f"line {call.lineno}: {keyword.arg}=")
    assert not problems, (
        f"{path.name} passes run_experiment keywords it does not take "
        f"(config fields go in overrides={{...}}): {problems}"
    )


def test_the_scan_sees_the_snippets():
    calls = [
        call
        for path in _sources()
        for snippet in _snippets(path)
        for call in _calls(ast.parse(snippet), "run_experiment")
    ]
    # README, examples/quickstart.py, docs/scale.md's heredoc and the
    # docs' facade snippets all call it.
    assert len(calls) >= 8
    bad = ast.parse('repro.run_experiment("quickstart", workers=4)')
    [call] = _calls(bad, "run_experiment")
    assert call.keywords[0].arg not in inspect.signature(run_experiment).parameters


@pytest.mark.parametrize("path", _sources(), ids=lambda p: str(p.relative_to(ROOT)))
def test_make_algorithm_calls_use_real_keywords(path):
    problems = [
        problem
        for snippet in _snippets(path)
        for problem in _make_algorithm_problems(ast.parse(snippet))
    ]
    assert not problems, (
        f"{path.name} passes make_algorithm keywords its algorithm does not take: {problems}"
    )


def test_the_scan_sees_the_make_algorithm_calls():
    named = [
        call
        for path in _sources()
        for snippet in _snippets(path)
        for call in _calls(ast.parse(snippet), "make_algorithm")
        if call.args and isinstance(call.args[0], ast.Constant)
    ]
    # README, docs/async.md and two examples name their algorithm.
    assert len(named) >= 4
    assert _make_algorithm_problems(
        ast.parse('make_algorithm("rfedavg+", lam=1e-3, delta_cache=False)')
    ) == ["line 1: rfedavg+ delta_cache="]
    assert _make_algorithm_problems(ast.parse('make_algorithm("fedprox", mu=0.1)')) == []
