"""Repository hygiene: no library definition without a user, and every flag
the README documents is one the CLI accepts."""
import ast
import contextlib
import io
import re
from collections import Counter
from pathlib import Path

import pytest

from regpara import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regpara"
SEARCHED = ("src", "tests", "demos", "perfbench")


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods of
    module-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield item.name


def test_every_definition_has_a_user():
    """A name that occurs only at its own definition is dead code."""
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if words[name] <= 1
    ]
    assert unused == []


def _help(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main(argv)
    return out.getvalue()


def test_readme_common_flags_are_accepted_by_every_verb():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Common flags:\s*`([^`]*)`", readme)
    assert listed is not None, "README has no 'Common flags' line"
    flags = re.findall(r"--[a-z][a-z-]*", listed.group(1))
    assert flags
    verbs = re.search(r"\{([a-z,-]+)\}", _help(["--help"])).group(1).split(",")
    assert verbs
    for verb in verbs:
        text = _help([verb, "--help"])
        missing = [f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", text)]
        assert missing == [], f"{verb} does not accept {missing}"


# numpy functions that read an exponent or a per-scale statistic off data
ESTIMATORS = ("polyfit", "lstsq", "quantile", "percentile", "median")


def _estimator_uses(node, owner, out):
    """(enclosing function, name) of every np.<estimator> attribute and
    every imported estimator name under node."""
    for child in ast.iter_child_nodes(node):
        name = getattr(child, "attr", None) or getattr(child, "name", None)
        if isinstance(child, (ast.Attribute, ast.alias)) and name in ESTIMATORS:
            out.append((owner, name))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        _estimator_uses(child, inner, out)
    return out


def test_one_slope_estimator():
    """Every regularity verdict comes from norms.log_scale_fit over a series
    of norms.scale_stats: a further estimator anywhere in the package fails."""
    uses = [
        (path.name, owner, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, name in _estimator_uses(ast.parse(path.read_text(encoding="utf-8")), None, [])
    ]
    assert sorted(uses) == [
        ("norms.py", "log_scale_fit", "polyfit"),
        ("norms.py", "scale_stats", "quantile"),
    ]
