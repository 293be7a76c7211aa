"""Decorated rooted trees: tree operations, homogeneity, the structural
coproduct, the one graft of an edge (plain, polynomial-shifted or
f-decorated; a kernel edge kills polynomials, I_k(X^n) = 0), and the
canonical / non-canonical change of representation.

A tree is stored as a root with its polynomial decoration n and a
canonically sorted tuple of branches, so isomorphic decorated trees (any
child order) compare and hash equal.  Edge decorations: type name, e
(derivative), f (polynomial shift, zero in the canonical representation).
Trees are immutable, so a tree and a branch build their canonical text
(`serialize`) and take their hash once, at construction: the dataclass hash
of their fields, whose own hashes are already kept.  Branches sort by their
text.  A TreeAlgebra grades each tree once (`homogeneity` is memoised per
algebra).  No output order rests on these hashes, which vary with the hash
seed: enumeration keeps dicts in insertion order and sorts by (homogeneity,
serialization).

T+ has one monomial type, `algebra.PlusMonomial`: on this side its
generators are integrated trees, and export renames them to their names.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    FreeVector,
    Multi,
    PlusMonomial,
    memoised,
    mi_abs,
    mi_add,
    mi_below,
    mi_below_abs,
    mi_binom,
    mi_factorial,
    mi_str,
    mi_sub,
    mi_zero,
    poly_split,
)


@dataclass(frozen=True)
class Branch:
    edge_type: str
    e_dec: Multi
    f_dec: Multi
    child: "DecoratedTree"

    def __post_init__(self):
        head = f"I[{self.edge_type};{mi_str(self.e_dec)}"
        if any(self.f_dec):
            head += f";{mi_str(self.f_dec)}"
        object.__setattr__(self, "text", f"{head}]({self.child.text})")
        object.__setattr__(self, "_hash", hash((self.edge_type, self.e_dec, self.f_dec, self.child)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class DecoratedTree:
    dim: int
    n_dec: Multi
    branches: tuple[Branch, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.branches, key=lambda b: b.text))
        bits = [b.text for b in ordered]
        if any(self.n_dec):
            bits.insert(0, "X" + mi_str(self.n_dec))
        object.__setattr__(self, "branches", ordered)
        object.__setattr__(self, "text", "*".join(bits) or "1")
        object.__setattr__(self, "_hash", hash((self.dim, self.n_dec, ordered)))

    def __hash__(self):
        return self._hash

    @property
    def is_leaf(self) -> bool:
        return not self.branches

    @property
    def is_unit(self) -> bool:
        return not self.branches and not any(self.n_dec)

    def with_root_n(self, k: Multi) -> "DecoratedTree":
        return DecoratedTree(self.dim, k, self.branches)

    def edge_count(self) -> int:
        return sum(1 + b.child.edge_count() for b in self.branches)

    def __str__(self):
        return self.text


def serialize(t: DecoratedTree) -> str:
    """Canonical parenthesised form; equal strings iff isomorphic trees."""
    return t.text


# -- constructors -------------------------------------------------------------

def unit_tree(dim: int) -> DecoratedTree:
    return DecoratedTree(dim, mi_zero(dim), ())


def x_power(dim: int, k: Multi) -> DecoratedTree:
    return DecoratedTree(dim, k, ())


def tree_product(a: DecoratedTree, b: DecoratedTree) -> DecoratedTree:
    """Identify roots; root decorations add; commutative up to isomorphism."""
    if a.dim != b.dim:
        raise ValueError("tree dimensions differ")
    return DecoratedTree(a.dim, mi_add(a.n_dec, b.n_dec), a.branches + b.branches)


def graft(edge_type: str, k: Multi, tau: DecoratedTree) -> DecoratedTree:
    """I_k^t(tau): new root, one edge of the given type with e-decoration k."""
    return graft_f(edge_type, k, mi_zero(tau.dim), tau)


def graft_f(edge_type: str, k: Multi, l: Multi, tau: DecoratedTree) -> DecoratedTree:
    """Non-canonical edge with f-decoration l (the tree of the operator lI_k^t)."""
    return DecoratedTree(tau.dim, mi_zero(tau.dim), (Branch(edge_type, k, l, tau),))


def x_mul(k: Multi, tau: DecoratedTree) -> DecoratedTree:
    return tau.with_root_n(mi_add(tau.n_dec, k)) if any(k) else tau


class TreeAlgebra:
    """Coproduct and basis-change machinery for one family of edge types,
    of which the edge types named in kernels are kernels."""

    def __init__(self, dim: int, types: dict[str, Fraction], kernels):
        self.dim = dim
        self.types = {k: Fraction(v) for k, v in types.items()}
        self.kernels = frozenset(kernels)
        self._lock = threading.Lock()
        self._homog_memo: dict[DecoratedTree, Fraction] = {}
        self._delta_memo: dict[DecoratedTree, FreeVector] = {}
        self._to_noncan_memo: dict[DecoratedTree, FreeVector] = {}
        self._to_can_memo: dict[DecoratedTree, FreeVector] = {}

    # -- homogeneity ----------------------------------------------------------

    @memoised("_homog_memo")
    def homogeneity(self, t: DecoratedTree) -> Fraction:
        """|tau| = |n| - |e| + |t| (+ |f| in the non-canonical form),
        computed once per tree and algebra."""
        h = Fraction(mi_abs(t.n_dec))
        for b in t.branches:
            if b.edge_type not in self.types:
                raise KeyError(f"unknown edge type {b.edge_type}")
            h += self.types[b.edge_type] - mi_abs(b.e_dec) + mi_abs(b.f_dec)
            h += self.homogeneity(b.child)
        return h

    # -- structural coproduct (canonical representation) -----------------------

    @memoised("_delta_memo")
    def delta(self, t: DecoratedTree) -> FreeVector:
        """Delta tau in T (x) T+, by the structural identities:
        Delta 1 = 1 (x) 1, Delta X_i primitive, multiplicativity,
        Delta I_k^t via (I_k^t (x) Id)Delta + truncated polynomial sum.
        Keys are (DecoratedTree, PlusMonomial over trees)."""
        d = self.dim
        if t.is_leaf:
            # single node X^k
            out = poly_split(t.n_dec, lambda l: x_power(d, l), PlusMonomial.of_poly)
        elif any(t.n_dec) or len(t.branches) > 1:
            # factorise: X^n * product of single branches
            out = self.delta(x_power(d, t.n_dec))
            for b in t.branches:
                single = DecoratedTree(d, mi_zero(d), (b,))
                out = out.tensor_mul(self.delta(single), tree_product, PlusMonomial.mul)
        else:
            (b,) = t.branches
            if any(b.f_dec):
                raise ValueError("delta is defined on canonical trees; expand f-decorations first")
            tau, k, tname = b.child, b.e_dec, b.edge_type
            terms = [((tree, right), c * c2) for (left, right), c in self.delta(tau).items()
                     for tree, c2 in self.graft(tname, k, left).items()]
            # strict truncation |l| + |k| < |tau| + |t| (ties excluded)
            room = self.homogeneity(tau) + self.types[tname] - mi_abs(k)
            for l in mi_below_abs(d, room):
                for inner, c in self.graft(tname, mi_add(k, l), tau).items():
                    terms.append(((x_power(d, l), PlusMonomial.of_gen(inner, d)),
                                  c / mi_factorial(l)))
            out = FreeVector(terms)
        return out

    def delta_plus_tree(self, t: DecoratedTree) -> FreeVector:
        """Delta+ of a positive integrated tree: same recursion with left
        factors reinterpreted in T+ and non-positive left trees projected out.
        Keys are (PlusMonomial, PlusMonomial) over trees."""
        if len(t.branches) != 1 or any(t.n_dec):
            raise ValueError(f"plus-generators are single integrated trees, got {t}")
        if self.homogeneity(t) <= 0:
            raise ValueError(f"{t} has non-positive homogeneity, not in T+")
        out = []
        for (left, right), c in self.delta(t).items():
            mono = self.tree_to_plus_monomial(left)
            if mono is None:
                continue
            out.append(((mono, right), c))
        return FreeVector(out)

    def tree_to_plus_monomial(self, t: DecoratedTree) -> PlusMonomial | None:
        """Reinterpret a tree X^a * prod branches as an element of T+;
        None if some integrated factor has non-positive homogeneity."""
        mono = PlusMonomial.of_poly(t.n_dec)
        for b in t.branches:
            single = DecoratedTree(t.dim, mi_zero(t.dim), (b,))
            if self.homogeneity(single) <= 0:
                return None
            mono = mono.mul(PlusMonomial.of_gen(single, t.dim))
        return mono

    # -- the kernel graft, plain, polynomial-shifted or f-decorated ------------

    def graft(self, tname: str, k: Multi, v, l: Multi | None = None,
              inverse: bool = False) -> FreeVector:
        """The one graft of an edge in the algebra, linear over a FreeVector
        of trees (or one tree) v: each tree tau of v goes to
        sum_m binom(s, m) X^m (-1)^{s-m} G(s - m), where
        - by default s = l and G(r) = I_k^t(X^r tau): lI_k^t(tau), which for
          l = 0 (or None) is the plain graft I_k^t(tau);
        - with inverse, s = n is tau's root decoration, tau = X^n sigma, and
          G(r) = {r}I_k^t(sigma), the f-decorated edge: the inversion formula
          writing I_k^t(tau) over the non-canonical basis.
        A kernel edge kills polynomials, I_k(X^n) = 0 (Hairer 2014, section
        5): a tree without branches grafts to 0.  Noise edges graft it."""
        out = []
        for tau, c in (v.items() if isinstance(v, FreeVector) else ((v, Fraction(1)),)):
            if not tau.branches and tname in self.kernels:
                continue
            s = tau.n_dec if inverse else l
            if s is None or not any(s):   # the sum's one term, m = s = 0
                out.append((graft(tname, k, tau), c))
                continue
            core = tau.with_root_n(mi_zero(self.dim)) if inverse else tau
            for m in mi_below(s):
                rest = mi_sub(s, m)
                edge = graft_f(tname, k, rest, core) if inverse else graft(tname, k, x_mul(rest, core))
                out.append((x_mul(m, edge), c * mi_binom(s, m) * (-1) ** mi_abs(rest)))
        return FreeVector(out)

    # -- canonical <-> non-canonical -------------------------------------------

    @memoised("_to_can_memo")
    def to_canonical(self, t: DecoratedTree) -> FreeVector:
        """Expand every f-decorated edge by the definition of lI_k^t."""
        out = FreeVector.single(x_power(self.dim, t.n_dec))
        for b in t.branches:
            branch = self.graft(b.edge_type, b.e_dec, self.to_canonical(b.child), b.f_dec)
            out = out.mul(branch, tree_product)
        return out

    @memoised("_to_noncan_memo")
    def to_noncanonical(self, t: DecoratedTree) -> FreeVector:
        """Expand a canonical tree over the f-decorated basis via the
        inversion formula; exact unitriangular change of basis."""
        out = FreeVector.single(x_power(self.dim, t.n_dec))
        for b in t.branches:
            if any(b.f_dec):
                raise ValueError(f"{t} is not canonical (f-decorated edge)")
            branch = self.graft(b.edge_type, b.e_dec, self.to_noncanonical(b.child), inverse=True)
            out = out.mul(branch, tree_product)
        return out

    def leading_ftree(self, t: DecoratedTree) -> DecoratedTree:
        """The f-tree paired with a canonical tree: every interior node's
        polynomial decoration moves to its incoming edge's f-slot."""
        branches = []
        for b in t.branches:
            child = self.leading_ftree(b.child)
            shift = child.n_dec
            branches.append(
                Branch(b.edge_type, b.e_dec, mi_add(b.f_dec, shift), child.with_root_n(mi_zero(self.dim)))
            )
        return DecoratedTree(t.dim, t.n_dec, tuple(branches))

    def delta_noncanonical(self, t: DecoratedTree) -> FreeVector:
        """Delta of an f-tree with left factors re-expanded over the
        non-canonical basis.  Keys are (DecoratedTree[f], PlusMonomial)."""
        acc_terms: list = []
        for can, c in self.to_canonical(t).items():
            for (left, right), c2 in self.delta(can).items():
                for ftree, c3 in self.to_noncanonical(left).items():
                    acc_terms.append(((ftree, right), c * c2 * c3))
        return FreeVector(acc_terms)


# -- parsing of the canonical term grammar --------------------------------------
#
#   tree    := "1" | factor ("*" factor)*
#   factor  := "X" mi | "I[" name ";" mi (";" mi)? "](" tree ")"
#   mi      := "(" int ("," int)* ")"
#   name    := (letter | digit | "_" | "-")+
#
# Serialization emits factors in canonical sorted order, so parse(serialize(t))
# round-trips for every tree.

def is_name(text: str) -> bool:
    """Whether text is a name of the grammar: an edge type that serializes
    into a tree the parser reads back."""
    return text != "" and all(c.isalnum() or c in "_-" for c in text)


class TreeParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _TreeParser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.pos = 0

    def error(self, message: str):
        raise TreeParseError(self.text, self.pos, message)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def name(self) -> str:
        start = self.pos
        while is_name(self.peek()):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start:self.pos]

    def natural(self) -> int:
        """A multi-index entry, in N."""
        start = self.pos
        while self.peek().isdecimal():   # isdigit() also passes "²", which int() refuses
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.text[start:self.pos])

    def mi(self) -> Multi:
        self.expect("(")
        out = [self.natural()]
        while self.peek() == ",":
            self.pos += 1
            out.append(self.natural())
        self.expect(")")
        if len(out) != self.dim:
            self.error(f"multi-index {tuple(out)} does not match dimension {self.dim}")
        return tuple(out)

    def factor(self) -> DecoratedTree:
        d = self.dim
        if self.peek() == "1":
            self.pos += 1
            return unit_tree(d)
        if self.peek() == "X":
            self.pos += 1
            return x_power(d, self.mi())
        if self.text.startswith("I[", self.pos):
            self.pos += 2
            tname = self.name()
            self.expect(";")
            e = self.mi()
            f = mi_zero(d)
            if self.peek() == ";":
                self.pos += 1
                f = self.mi()
            self.expect("]")
            self.expect("(")
            child = self.tree()
            self.expect(")")
            return graft_f(tname, e, f, child)
        self.error("expected a tree factor ('1', 'X' or 'I[')")

    def tree(self) -> DecoratedTree:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = tree_product(out, self.factor())
        return out


def parse_tree(text: str, dim: int) -> DecoratedTree:
    """Parse the canonical parenthesised tree grammar (see `serialize`)."""
    p = _TreeParser(text.strip(), dim)
    out = p.tree()
    if p.pos != len(p.text):
        p.error("trailing input after tree")
    return out
