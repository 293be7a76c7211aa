"""Textual formats: rule files, structure-definition files, and deterministic
serialization of structures and free vectors.

Rule file (line-oriented, '#' comments):

    dim 1
    cutoff 1
    polybound 1
    max_e 0
    noise xi -5/8
    kernel t 1
    allow t xi          # one allowed node product per line

Structure file: either explicit tables

    dim 1
    cutoff 2
    gen J0 plus 7/8
    gen th base -9/8
    dplus J0 = J0 (x) 1 + 1 (x) J0
    delta th = th (x) 1

or a reference to a rule file:

    rule toy.rule canonical|noncanonical

Monomials: '1', 'X(1,0)', generator names, powers 'J0^2', products joined
with '.'.  Base symbols on the left of 'delta' terms: 'X_(1).core', 'X_(1)',
or a bare core name.  Coefficients are rational strings; terms are joined
with ' + '.
"""
from __future__ import annotations

import io
import os
import re
from fractions import Fraction

from .algebra import (
    BaseSymbol,
    ConcreteRegularityStructure,
    FreeVector,
    PlusMonomial,
    mi_str,
    mi_zero,
)
from .rules import Rule, enumerate_basis, export_structure
from .trees import is_name


class FileFormatError(ValueError):
    def __init__(self, path, line_no, message, col=None):
        where = f"{path}:{line_no}" + (f":{col}" if col is not None else "")
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line_no
        self.col = col


def content_lines(text: str) -> list[tuple[int, str]]:
    """(number, text) of each line, split as in text mode, not blank once '#' comments are cut."""
    out = []
    for i, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_fraction(path, line_no, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(path, line_no, f"bad rational {text!r}") from None


def _parse_int(path, line_no, text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise FileFormatError(path, line_no, f"expected an integer >= {low}, got {text!r}")
    return value


# -- rule files -----------------------------------------------------------------

def read_rule(path) -> Rule:
    dim = None
    cutoff = None
    polybound = 1
    max_e = 0
    noises: list[tuple[str, Fraction]] = []
    kernels: list[tuple[str, Fraction]] = []
    products: list[tuple[int, tuple[tuple[str, int], ...]]] = []  # (line, product)
    with open(path, "r", encoding="utf-8") as fh:
        lines = content_lines(fh.read())
    for line_no, line in lines:
        parts = line.split()
        key = parts[0]
        if key == "dim" and len(parts) == 2:
            dim = _parse_int(path, line_no, parts[1], 1)
        elif key == "cutoff" and len(parts) == 2:
            cutoff = _parse_fraction(path, line_no, parts[1])
        elif key == "polybound" and len(parts) == 2:
            polybound = _parse_int(path, line_no, parts[1], 0)
        elif key == "max_e" and len(parts) == 2:
            max_e = _parse_int(path, line_no, parts[1], 0)
        elif key in ("noise", "kernel") and len(parts) == 3:
            if not is_name(parts[1]):
                raise FileFormatError(path, line_no, f"edge type {parts[1]!r}: "
                                      "a name is letters, digits, '_' and '-'")
            if parts[1] in {nm for nm, _ in noises + kernels}:
                raise FileFormatError(path, line_no, f"edge type {parts[1]} declared twice")
            (noises if key == "noise" else kernels).append(
                (parts[1], _parse_fraction(path, line_no, parts[2])))
        elif key == "allow":
            counts: dict[str, int] = {}
            for nm in parts[1:]:
                counts[nm] = counts.get(nm, 0) + 1
            products.append((line_no, tuple(sorted(counts.items()))))
        else:
            raise FileFormatError(path, line_no, f"unrecognised rule line {line!r}")
    if dim is None:
        raise FileFormatError(path, 0, "missing 'dim'")
    if cutoff is None:
        raise FileFormatError(path, 0, "missing 'cutoff'")
    known = {n for n, _ in noises} | {n for n, _ in kernels}
    for line_no, prod in products:
        for nm, _ in prod:
            if nm not in known:
                raise FileFormatError(path, line_no, f"product uses unknown edge type {nm!r}")
    return Rule(
        dim=dim,
        cutoff=cutoff,
        noises=tuple(noises),
        kernels=tuple(kernels),
        products=tuple(prod for _, prod in products),
        polybound=polybound,
        max_e=max_e,
        name=os.path.splitext(os.path.basename(str(path)))[0],
    )


def write_rule(path, rule: Rule) -> None:
    lines = [f"dim {rule.dim}", f"cutoff {rule.cutoff}",
             f"polybound {rule.polybound}", f"max_e {rule.max_e}"]
    for n, h in rule.noises:
        lines.append(f"noise {n} {h}")
    for n, h in rule.kernels:
        lines.append(f"kernel {n} {h}")
    for prod in rule.products:
        names = []
        for nm, m in prod:
            names.extend([nm] * m)
        lines.append("allow " + " ".join(names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- monomial and term grammar -----------------------------------------------------

_MI_RE = re.compile(r"^\((\d+)(,(\d+))*\)")


def _parse_mi(path, line_no, text: str, dim: int) -> tuple[tuple[int, ...], str]:
    """A multi-index in N^d at the start of text, and the rest of text."""
    m = _MI_RE.match(text)
    if not m:
        raise FileFormatError(path, line_no, f"expected a multi-index in N^{dim} at {text[:20]!r}")
    body = m.group(0)
    vals = tuple(int(v) for v in body[1:-1].split(","))
    if len(vals) != dim:
        raise FileFormatError(path, line_no, f"multi-index {body} does not match dim {dim}")
    return vals, text[len(body):]


def parse_plus_monomial(path, line_no, text: str, dim: int,
                        gens: dict[str, Fraction]) -> PlusMonomial:
    text = text.strip()
    if text == "1":
        return PlusMonomial.unit(dim)
    poly = mi_zero(dim)
    counts: dict[str, int] = {}
    for factor in _split_factors(text):
        if factor.startswith("X("):
            k, rest = _parse_mi(path, line_no, factor[1:], dim)
            if rest:
                raise FileFormatError(path, line_no, f"trailing input {rest!r} after X{mi_str(k)}")
            poly = tuple(a + b for a, b in zip(poly, k))
        else:
            name, *power = factor.split("^", 1)
            mult = _parse_int(path, line_no, power[0], 1) if power else 1
            if name not in gens:
                raise FileFormatError(path, line_no, f"unknown plus-generator {name!r}")
            counts[name] = counts.get(name, 0) + mult
    return PlusMonomial(tuple(sorted(counts.items())), poly)


def _split_factors(text: str) -> list[str]:
    """Split a monomial on '.' at bracket depth zero (names contain brackets)."""
    return _split_top(text, ".")


def parse_base_symbol(path, line_no, text: str, dim: int,
                      cores: dict[str, Fraction]) -> BaseSymbol:
    text = text.strip()
    if text == "1":
        return BaseSymbol.unit(dim)
    poly = mi_zero(dim)
    core = "1"
    for factor in _split_factors(text):
        if factor.startswith("X_("):
            k, rest = _parse_mi(path, line_no, factor[2:], dim)
            if rest:
                raise FileFormatError(path, line_no, f"trailing input {rest!r}")
            poly = tuple(a + b for a, b in zip(poly, k))
        else:
            if factor not in cores:
                raise FileFormatError(path, line_no, f"unknown base generator {factor!r}")
            if core != "1":
                raise FileFormatError(path, line_no, "base symbol with two cores")
            core = factor
    return BaseSymbol(core, poly)


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a separator at bracket depth zero only (generator names carry
    brackets and '*' inside).  Occurrences are taken left to right, the
    depth counted with str.count over the text since the last split;
    brackets inside a split separator do not count.  Every separator in use
    starts with a character that is not a bracket."""
    out = []
    start = scanned = depth = 0
    i = text.find(sep)
    while i >= 0:
        seg = text[scanned:i]
        depth += (seg.count("(") + seg.count("[") + seg.count("{")
                  - seg.count(")") - seg.count("]") - seg.count("}"))
        scanned = i
        if depth == 0:
            out.append(text[start:i])
            start = scanned = i + len(sep)
            i = text.find(sep, start)
        else:
            i = text.find(sep, i + 1)
    out.append(text[start:])
    return [c.strip() for c in out if c.strip()]


def _parse_terms(path, line_no, text: str):
    """Split 'c1 * m1 (x) n1 + c2 * m2 (x) n2 + ...' into (coeff, left, right)."""
    for chunk in _split_top(text, " + "):
        pieces = _split_top(chunk, " (x) ")
        if len(pieces) != 2:
            raise FileFormatError(path, line_no, f"term {chunk!r} needs exactly one ' (x) '")
        left, right = pieces
        coeff = Fraction(1)
        factors = _split_top(left, " * ")
        if len(factors) == 2:
            coeff = _parse_fraction(path, line_no, factors[0])
            left = factors[1]
        elif len(factors) != 1:
            raise FileFormatError(path, line_no, f"term {chunk!r} has too many ' * '")
        yield coeff, left, right


# -- structure files ------------------------------------------------------------------

def read_structure(path) -> ConcreteRegularityStructure:
    """The structure file at path; a `rule` line names a rule file beside it."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read(), path, os.path.dirname(os.path.abspath(str(path))))


def parse_structure(text: str, source, rule_dir) -> ConcreteRegularityStructure:
    """The structure in `text`, errors naming `source` and a line.  A `rule`
    line names a rule file under `rule_dir`.  A bundle's reader passes the
    structure.txt bytes it read once and checked, with rule_dir None: a
    bundle's structure cannot reference a rule file, which no manifest lists."""
    dim = None
    cutoff = None
    gen_lines = []
    table_lines = []
    rule_ref = None
    for line_no, line in content_lines(text):
        parts = line.split(None, 1)
        key = parts[0]
        if key not in ("dim", "cutoff", "rule", "gen", "dplus", "delta"):
            raise FileFormatError(source, line_no, f"unrecognised structure line {line!r}")
        if len(parts) == 1:
            raise FileFormatError(source, line_no, f"{key!r} needs a value")
        value = parts[1]
        if key == "dim":
            dim = _parse_int(source, line_no, value, 1)
        elif key == "cutoff":
            cutoff = _parse_fraction(source, line_no, value)
        elif key == "rule":
            bits = value.split()
            if len(bits) != 2 or bits[1] not in ("canonical", "noncanonical"):
                raise FileFormatError(source, line_no,
                                      "expected 'rule PATH canonical|noncanonical'")
            if rule_dir is None:
                raise FileFormatError(source, line_no, f"rule {bits[0]}: a bundle's structure "
                                      "cannot reference a rule file")
            rule_ref = (os.path.join(rule_dir, bits[0]), bits[1] == "noncanonical")
        elif key == "gen":
            gen_lines.append((line_no, value))
        else:
            table_lines.append((line_no, key, value))

    if rule_ref is not None:
        basis = enumerate_basis(read_rule(rule_ref[0]))
        return export_structure(basis, noncanonical=rule_ref[1])

    if dim is None or cutoff is None:
        raise FileFormatError(source, 0, "missing 'dim' or 'cutoff'")
    plus_gens: dict[str, Fraction] = {}
    base_gens: dict[str, Fraction] = {"1": Fraction(0)}
    for line_no, body in gen_lines:
        bits = body.split()
        if len(bits) != 3 or bits[1] not in ("plus", "base"):
            raise FileFormatError(source, line_no, "expected 'gen NAME plus|base HOMOG'")
        name, kind, h = bits[0], bits[1], _parse_fraction(source, line_no, bits[2])
        if kind == "plus":
            plus_gens[name] = h
        else:
            base_gens[name] = h
    dplus_table: dict[str, FreeVector] = {}
    delta_table: dict[str, FreeVector] = {}
    # kind -> (its generators, its table, the parser of its left factors)
    kinds = {"dplus": (plus_gens, dplus_table, parse_plus_monomial),
             "delta": (base_gens, delta_table, parse_base_symbol)}
    for line_no, kind, body in table_lines:
        if "=" not in body:
            raise FileFormatError(source, line_no, f"expected 'NAME = terms' in {body!r}")
        name, terms_text = body.split("=", 1)
        name = name.strip()
        gens, table, parse_left = kinds[kind]
        terms = []
        for coeff, left, right in _parse_terms(source, line_no, terms_text.strip()):
            right_mono = parse_plus_monomial(source, line_no, right, dim, plus_gens)
            terms.append(((parse_left(source, line_no, left, dim, gens), right_mono), coeff))
        if name not in gens:
            raise FileFormatError(source, line_no, f"{kind} for unknown generator {name!r}")
        table[name] = FreeVector(terms)
    return ConcreteRegularityStructure(
        dim=dim,
        cutoff=cutoff,
        plus_gens=plus_gens,
        base_gens=base_gens,
        dplus_table=dplus_table,
        delta_table=delta_table,
        name=os.path.splitext(os.path.basename(str(source)))[0],
    )


def structure_text(S: ConcreteRegularityStructure) -> str:
    """Deterministic serialization: sorted generators and canonical term order."""
    lines = [f"dim {S.dim}", f"cutoff {S.cutoff}"]
    for name in sorted(S.plus_gens):
        lines.append(f"gen {name} plus {S.plus_gens[name]}")
    for name in sorted(S.base_gens):
        if name != "1":
            lines.append(f"gen {name} base {S.base_gens[name]}")
    for kind, table in (("dplus", S.dplus_table), ("delta", S.delta_table)):
        for name in sorted(table):
            terms = " + ".join(
                f"{c} * {left} (x) {right}" for (left, right), c in table[name].sorted_items()
            )
            lines.append(f"{kind} {name} = {terms}")
    return "\n".join(lines) + "\n"


def write_structure(path, S: ConcreteRegularityStructure) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(structure_text(S))
