"""Repository hygiene: no library definition without a user, every flag
a verb accepts is one it reads and the README documents, and every name the
benchmark's tracer wraps exists."""
import argparse
import ast
import contextlib
import importlib
import io
import re
from collections import Counter
from pathlib import Path

import pytest

from regpara import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regpara"
# Where a library definition finds its users: the tests do not count.
SEARCHED = ("src", "demos", "perfbench")

# Definitions whose only users are tests, and why each stays.
TEST_ONLY = {
    "ell_identity_defect": "the acceptance gate checks the ell-identity of every tree with it",
    "write_rule": "the writer of the rule-file format, kept for its read/write round trip",
    "read_config": "the path reader of config files; a bundle reader parses the config.txt "
                   "bytes it checked with parse_config",
    "synthesis_top": "the highest block synthesized inputs fill, bounding test slope fits",
    "two_param_block": "one two-parameter block Q_j, checked against a brute-force kernel",
}


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


def _words(*tops) -> Counter:
    words = Counter()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_definition_has_a_user():
    """A name that occurs in the package, the demos and the benchmark only
    at its own definition is dead code, unless TEST_ONLY names it with its
    reason and a test uses it; a stale TEST_ONLY entry fails too."""
    words = _words(*SEARCHED)
    unused = sorted(
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if words[name] <= 1
    )
    assert unused == sorted(TEST_ONLY)
    tested = _words("tests")
    assert [name for name in TEST_ONLY if not tested[name]] == []


def _help(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main(argv)
    return out.getvalue()


def _args_reads(functions, name, seen) -> set[str]:
    """Attributes of `args` read by cli function `name` and by every cli
    function it hands `args` to."""
    if name in seen:
        return set()
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in functions \
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            reads |= _args_reads(functions, node.func.id, seen)
    return reads


def _readme_flags() -> dict[str, set[str]]:
    """verb -> the flags README's per-verb list gives it, --out included."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "Flags by verb." in readme, "README has no per-verb flag list"
    items = readme.split("Flags by verb.", 1)[1].split("\n\n")[1]
    out = {}
    for item in items.removeprefix("- ").split("\n- "):
        head, _, flags = item.partition(":")
        for verb in re.findall(r"`([a-z-]+)`", head):
            out[verb] = set(re.findall(r"--[a-z][a-z-]*", flags)) | {"--out"}
    return out


def test_every_flag_is_read():
    """Each option a verb accepts is read as args.<dest> by its cmd_*
    function or a helper given args, and README lists exactly the options
    of each verb's --help."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    verbs = next(a for a in cli._parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert verbs
    unread = []
    for verb, p in verbs.items():
        reads = _args_reads(functions, p.get_default("fn").__name__, set())
        unread += [f"{verb} {a.option_strings[0]}" for a in p._actions
                   if a.option_strings and a.dest != "help" and a.dest not in reads]
    assert unread == []
    in_help = {verb: set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _help([verb, "--help"])))
               - {"--help"} for verb in verbs}
    assert _readme_flags() == in_help


def _cfg_reads(function) -> set[str]:
    """Config fields read as cfg.<field> under function; cfg.grid() reads
    the grid's three."""
    reads = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "cfg":
            reads |= {"dim", "n", "box"} if node.attr == "grid" else {node.attr}
    return reads


def test_stored_build_flags_are_read_from_the_bundle():
    """A model-build flag that goes into config.txt is read back, as its
    Config field, by a verb that loads the bundle or by the bundle reader."""
    trees = {name: ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
             for name in ("cli.py", "bundles.py")}
    functions = {n.name: n for tree in trees.values() for n in tree.body
                 if isinstance(n, ast.FunctionDef)}
    readers = [f for name, f in functions.items() if name == "_read_bundle"
               or name.startswith("cmd_") and "read_model_bundle" in ast.unparse(f)]
    assert len(readers) > 5
    read = set().union(*map(_cfg_reads, readers))
    build = next(a for a in cli._parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["model-build"]
    stored = {{"grid": "n"}.get(a.dest, a.dest) for a in build._actions
              if a.dest not in ("help", "out", "structure", "noncanonical")}
    assert stored <= set(cli.Config.__dataclass_fields__)
    assert stored - read == set()


# numpy functions that read an exponent or a per-scale statistic off data
ESTIMATORS = ("polyfit", "lstsq", "quantile", "percentile", "median", "partition")


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
        ("norms.py", "scale_stats", "partition"),
    ]


def _references(tree: ast.Module, name: str):
    """The module-level definition enclosing each read or import of name."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and name in (node.name, node.asname)):
                yield getattr(top, "name", None)


def _string_literals(tree: ast.Module):
    """Every str constant but the docstrings."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docs]


def test_one_verdict_path():
    """Every pass/FAIL comes from a norms.Report: slope_verdict is read only
    by Report and Check, and the command line spells no FAIL of its own."""
    refs = [
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _references(ast.parse(path.read_text(encoding="utf-8")), "slope_verdict")
    ]
    assert refs and set(refs) <= {("norms.py", "Report"), ("norms.py", "Check")}, refs
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert [s for s in _string_literals(cli_tree) if "FAIL" in s] == []


def test_one_step_path():
    """Every sum of paraproducts in models.py and translation.py is one
    block sum: neither names paraproduct, modified_paraproduct or resonant,
    and outside paraproducts.py only BracketExtractor and
    reconstruct_family read paraproduct_sum (models.py imports it)."""
    for name in ("models.py", "translation.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for single in ("paraproduct", "modified_paraproduct", "resonant"):
            assert list(_references(tree, single)) == [], (name, single)
    refs = {
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "paraproducts.py"
        for owner in _references(ast.parse(path.read_text(encoding="utf-8")), "paraproduct_sum")
    }
    assert refs == {("models.py", None), ("models.py", "BracketExtractor"),
                    ("models.py", "reconstruct_family")}


def _name_sites(tree: ast.Module, names):
    """The dotted name of the function or class around each read or import
    of one of names as a bare name (None at module level)."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id in names
                    or isinstance(child, ast.alias) and names & {child.name, child.asname}):
                yield owner
            yield from walk(child, owner)
    yield from walk(tree, None)


def test_one_graft_path():
    """Every graft of a kernel edge goes through TreeAlgebra.graft, where
    I_k(X^n) = 0: in the package, only TreeAlgebra.graft, graft itself (for
    graft_f), the tree parser and the enumerator's noise seeds (one site)
    name the tree constructors graft and graft_f, and only rules.py
    imports one."""
    sites = Counter(
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _name_sites(ast.parse(path.read_text(encoding="utf-8")), {"graft", "graft_f"})
    )
    assert set(sites) == {("trees.py", "graft"), ("trees.py", "TreeAlgebra.graft"),
                          ("trees.py", "_TreeParser.factor"), ("rules.py", None),
                          ("rules.py", "enumerate_basis")}
    assert sites[("rules.py", "enumerate_basis")] == 1


def test_every_traced_name_resolves(monkeypatch):
    """Each (module, attribute) in perfbench/tracer.GROUPS names a module
    attribute or an entry of a class __dict__, as `Tracer.install` reads
    them: a rename in the package fails here, not in `run.py --trace 1`.
    The tracer module is imported, never installed."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    entries = [entry for group in tracer.GROUPS.values() for entry in group]
    assert len(entries) > 40
    missing = []
    for modname, attr in entries:
        mod = importlib.import_module(modname)
        owner, _, name = attr.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or name not in vars(holder):
            missing.append(f"{modname}:{attr}")
    assert missing == []


def _unused_imports(tree: ast.Module, reexports: bool) -> list[str]:
    """Names a module binds by import and never reads.  `from __future__`
    is exempt, and so are a package's relative re-exports when
    `reexports` is set."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    """An AST scan of every package module: names imported against names
    read."""
    unused = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")),
                                    reexports=path.name == "__init__.py")
    ]
    assert unused == []


# Where numpy's FFT may be called outside blocks.py: the direct callers the
# blocks.py module docstring names, as "function" or "Class.method".
DIRECT_FFT = {
    "grid.py": {"Field.spectrum", "Grid.coord_fields"},
    "norms.py": {"synthesize"},
    "paraproducts.py": {"_two_param_spectrum", "_two_param_block"},
}


def _owned_nodes(tree: ast.Module):
    """(owner, node) for every node below a module-level statement; the
    owner is the function or "Class.method" that holds it, else None."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                owner = f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef) else None
                yield from ((owner, node) for node in ast.walk(item))
        else:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            yield from ((owner, node) for node in ast.walk(top))


def test_block_transforms_have_one_owner():
    """No module but blocks.py reads a plan's stack depth (`.lanes`): the
    plan's `blocks` sizes every stack.  numpy's FFT is reached only from
    blocks.py and the direct callers of DIRECT_FFT."""
    lanes, fft = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "blocks.py":
            continue
        allowed = DIRECT_FFT.get(path.name, set())
        for owner, node in _owned_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "lanes":
                lanes.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            else:
                continue
            if owner not in allowed and any("fft" in name.split(".") for name in names):
                fft.append(f"{path.name}:{node.lineno} ({owner})")
    assert lanes == []
    assert fft == []
