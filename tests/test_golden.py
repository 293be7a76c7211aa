"""Golden outputs.  The structure-file text of every shipped export and the
`bhz-enumerate` / `bhz-transform` reports of every shipped rule must stay
byte-identical, and so must the exit status and stdout of every verb of the
benchmark's two command-line chains (perfbench/clichain.py), up to round-off
in readings of exact identities.  The files under tests/data/golden were
written by `golden_outputs()` and `cli_golden_outputs()` below; a change
that means to alter one of them must say why and rewrite it the same way.
The enumeration of every shipped rule at the cutoffs of ENUMERATE_CUTOFFS
(trees in order, with homogeneities) is pinned the same way, by
`enumeration_dump()`, in the subdirectory tests/data/golden/enumerate.
Every field of the assumption report of each of those enumerations (both
bases, where the export succeeds) and of the eight golden structure files,
with `check_d_canonical` and `check_stronger_claim` of each enumerated basis,
is pinned by `assumption_dump()` and `structure_assumption_dump()` in
tests/data/golden/assumptions.  The stdout of every script under demos/ is
pinned, up to round-off, in tests/data/golden/demos/<script>.txt."""
import contextlib
import dataclasses
import functools
import importlib
import io
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from regpara import cli, library
from regpara.algebra import mi_str
from regpara.rules import (ClosureError, check_d_canonical, check_stronger_claim,
                           enumerate_basis, export_structure)
from regpara.structure_io import read_structure, write_structure
from regpara.trees import serialize

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
NAMES = sorted(library.RULES)
# perfbench/clichain.CHAINS, and the seed of its bundles and of roundtrip
CLI_CHAINS = (("toy", False), ("bhz", True))
CLI_SEED = 0
# A reading this small is round-off of an exact identity (rel_err=,
# max_rel_err=, chen-relation, identity:*, agreement:*), which differs
# between floating-point environments.
ROUNDOFF = 1e-12
# Rule cutoffs whose enumeration is dumped under tests/data/golden/enumerate
# (the shipped cutoffs and the larger ones that still enumerate in well under
# a second each).
ENUMERATE_CUTOFFS = {
    "toy": ("1", "5/4", "3/2", "7/4", "2", "5/2"),
    "twonoise": ("1", "3/2", "2"),
    "bhz": ("2", "5/2", "3", "4"),
    "toy2d": ("1", "3/2", "2", "5/2"),
}
ENUMERATE_CASES = [(name, c) for name, cuts in ENUMERATE_CUTOFFS.items() for c in cuts]
STRUCTURE_GOLDENS = [f"structure-{name}-{kind}.txt"
                     for name in NAMES for kind in ("canonical", "noncanonical")]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _structure_text(name: str, noncanonical: bool, tmp: Path) -> bytes:
    path = tmp / "structure.txt"
    write_structure(path, library.structure(name, noncanonical=noncanonical))
    return path.read_bytes()


def _verb_stdout(verb: str, name: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([verb, "--rule", name])
    return out.getvalue().encode("utf-8")


def golden_outputs(name: str, tmp: Path):
    """(file name, bytes) of the golden outputs of one shipped rule, rebuilt
    from the code."""
    for kind in ("canonical", "noncanonical"):
        yield f"structure-{name}-{kind}.txt", _structure_text(name, kind == "noncanonical", tmp)
    for verb in ("bhz-enumerate", "bhz-transform"):
        yield f"{verb}-{name}.txt", _verb_stdout(verb, name)


@functools.cache
def _basis(name: str, cutoff: str):
    return enumerate_basis(dataclasses.replace(library.RULES[name], cutoff=Fraction(cutoff)))


def enumeration_dump(name: str, cutoff: str) -> bytes:
    """The closure, B., B~. and B+ of a shipped rule at another cutoff, in
    the order enumerate_basis returns them, one `homogeneity tree` line each."""
    basis = _basis(name, cutoff)
    lines = [f"# rule {name} cutoff {cutoff}"]
    for title, trees in (("closure", basis.trees), ("B.", basis.b_dot),
                         ("B~.", basis.b_dot_tilde), ("B+", basis.plus_trees)):
        lines.append(f"{title} {len(trees)}")
        lines.extend(f"{basis.homog(t)} {serialize(t)}" for t in trees)
    return ("\n".join(lines) + "\n").encode("utf-8")


def enumeration_golden(name: str, cutoff: str) -> Path:
    return GOLDEN / "enumerate" / f"enumerate-{name}-{cutoff.replace('/', '_')}.txt"


def assumption_lines(rep) -> list[str]:
    """Every field of an AssumptionReport: `field value`, and a list or the
    orbit map as `field count` with one indented line per entry, the orbit
    map in its insertion order."""
    out = []
    for f in dataclasses.fields(rep):
        value = getattr(rep, f.name)
        if isinstance(value, dict):
            out.append(f"{f.name} {len(value)}")
            out.extend(f"  {n} {root} {mi_str(k)}" for n, (root, k) in value.items())
        elif isinstance(value, list):
            out.append(f"{f.name} {len(value)}")
            out.extend(f"  {x}" for x in value)
        else:
            out.append(f"{f.name} {value}")
    return out


def assumption_dump(name: str, cutoff: str) -> bytes:
    """check_d_canonical and check_stronger_claim of the enumerated basis,
    then the assumption report of its export on each basis (or the error
    that stops the export)."""
    basis = _basis(name, cutoff)
    lines = [f"# rule {name} cutoff {cutoff}"]
    for title, check in (("check_d_canonical", check_d_canonical),
                         ("check_stronger_claim", check_stronger_claim)):
        ok, witness = check(basis)
        lines.append(f"{title} {ok} {witness}")
    for kind in ("canonical", "noncanonical"):
        try:
            S = export_structure(basis, noncanonical=kind == "noncanonical")
        except ClosureError as exc:
            lines.append(f"{kind} export {type(exc).__name__} {exc}")
            continue
        lines.append(f"{kind} check_assumptions")
        lines.extend(assumption_lines(S.check_assumptions()))
    return ("\n".join(lines) + "\n").encode("utf-8")


def structure_assumption_dump(fname: str) -> bytes:
    """The assumption report of a golden structure file, read back."""
    S = read_structure(GOLDEN / fname)
    lines = [f"# {fname}"] + assumption_lines(S.check_assumptions())
    return ("\n".join(lines) + "\n").encode("utf-8")


def assumption_goldens() -> dict[Path, object]:
    """Golden file -> the function of no arguments that rebuilds it."""
    out = {GOLDEN / "assumptions" / f"enumerate-{name}-{c.replace('/', '_')}.txt":
           functools.partial(assumption_dump, name, c) for name, c in ENUMERATE_CASES}
    for fname in STRUCTURE_GOLDENS:
        out[GOLDEN / "assumptions" / fname] = functools.partial(structure_assumption_dump, fname)
    return out


def clichain(monkeypatch):
    """The benchmark's command-line chain module, imported from perfbench."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("clichain")


def cli_golden_outputs(chain, name: str, noncanonical: bool):
    """(file name, bytes) of every verb of one chain, run with relative paths
    in the current directory: `exit=N` and the verb's stdout."""
    for _half, op, argv in chain._chain(Path("."), name, noncanonical, CLI_SEED):
        rc, out, _err = chain.run_verb(argv)
        yield f"cli-{op.replace(':', '-')}.txt", f"exit={rc}\n{out}".encode("utf-8")


def _roundoff(token: str) -> bool:
    try:
        return abs(float(token.rpartition("=")[2])) <= ROUNDOFF
    except ValueError:
        return False


def same_up_to_roundoff(got: bytes, want: bytes) -> bool:
    """Byte for byte, except that two tokens with the same `key=` whose
    values both have magnitude <= ROUNDOFF compare equal."""
    got_lines, want_lines = got.decode("utf-8").split("\n"), want.decode("utf-8").split("\n")
    if len(got_lines) != len(want_lines):
        return False
    for a, b in zip(got_lines, want_lines):
        ta, tb = a.split(" "), b.split(" ")
        if len(ta) != len(tb) or not all(
            x == y or (x.rpartition("=")[0] == y.rpartition("=")[0] and _roundoff(x) and _roundoff(y))
            for x, y in zip(ta, tb)
        ):
            return False
    return True


def test_golden_set_is_complete(monkeypatch):
    """Eight exports and eight reports: no shipped rule goes unchecked; and
    one file per verb of each command-line chain."""
    assert len(NAMES) == 4
    assert len(list(GOLDEN.glob("*.txt"))) == 16 + 24
    chain = clichain(monkeypatch)
    assert chain.CHAINS == CLI_CHAINS
    assert len(list(GOLDEN.glob("cli-*.txt"))) == len(CLI_CHAINS) * len(chain.VERBS) == 24


@pytest.mark.parametrize("name", NAMES)
def test_golden_outputs_are_byte_identical(name, tmp_path):
    for fname, data in golden_outputs(name, tmp_path):
        assert data == (GOLDEN / fname).read_bytes(), fname


@pytest.mark.parametrize("name, noncanonical", CLI_CHAINS, ids=[n for n, _ in CLI_CHAINS])
def test_cli_chain_outputs_match_golden(name, noncanonical, tmp_path, monkeypatch):
    chain = clichain(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for fname, data in cli_golden_outputs(chain, name, noncanonical):
        assert same_up_to_roundoff(data, (GOLDEN / fname).read_bytes()), fname


def test_roundoff_rule_is_narrow():
    want = b"exit=0\ng u rel_err=3.1e-16\nchen-relation pass value=0 target=0\n"
    assert same_up_to_roundoff(b"exit=0\ng u rel_err=9.9e-14\nchen-relation pass value=2e-17 target=0\n", want)
    assert not same_up_to_roundoff(b"exit=0\ng u rel_err=2e-12\nchen-relation pass value=0 target=0\n", want)
    assert not same_up_to_roundoff(b"exit=0\ng u max_err=1e-16\nchen-relation pass value=0 target=0\n", want)
    assert not same_up_to_roundoff(b"exit=1\ng u rel_err=3.1e-16\nchen-relation pass value=0 target=0\n", want)


@pytest.mark.parametrize("name", [n for n, _ in CLI_CHAINS])
def test_benchmark_recognises_the_known_extract_fault(name, monkeypatch):
    """cli-512 counts model-extract's exit 1 as its known fault only when
    `clichain._known_extract_fault` accepts the stdout: the benchmark's
    parser must read the verb's line format."""
    status, _, stdout = (GOLDEN / f"cli-{name}-model-extract.txt").read_text("utf-8").partition("\n")
    assert status == "exit=1"
    assert clichain(monkeypatch)._known_extract_fault(stdout)


def test_enumeration_golden_set_is_complete():
    assert set(ENUMERATE_CUTOFFS) == set(NAMES)
    assert sorted((GOLDEN / "enumerate").glob("*.txt")) == sorted(
        enumeration_golden(name, c) for name, c in ENUMERATE_CASES)


@pytest.mark.parametrize("name, cutoff", ENUMERATE_CASES,
                         ids=[f"{n}-{c.replace('/', '_')}" for n, c in ENUMERATE_CASES])
def test_enumeration_matches_golden(name, cutoff):
    """Same trees, same order, same homogeneities: the gate on any change to
    tree hashing, grading or the enumeration loop."""
    assert enumeration_dump(name, cutoff) == enumeration_golden(name, cutoff).read_bytes()


def test_assumption_golden_set_is_complete():
    assert len(STRUCTURE_GOLDENS) == 8
    assert sorted((GOLDEN / "assumptions").glob("*.txt")) == sorted(assumption_goldens())


@pytest.mark.parametrize("path", sorted(assumption_goldens()), ids=lambda p: p.stem)
def test_assumption_report_matches_golden(path):
    """Every field of every assumption report, the orbit map's order
    included, and both tree-basis checks with their witnesses."""
    assert assumption_goldens()[path]() == path.read_bytes()


def test_demo_golden_set_is_complete():
    assert len(DEMOS) == 5
    assert sorted((GOLDEN / "demos").glob("*.txt")) == [GOLDEN / "demos" / f"{d.stem}.txt"
                                                       for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    """Each demo run as a script prints its golden text; a numeric warning
    is an error here, as in the suite."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    want = (GOLDEN / "demos" / f"{demo.stem}.txt").read_bytes()
    assert same_up_to_roundoff(out.getvalue().encode("utf-8"), want)
