"""Decorated rooted trees: tree operations, homogeneity, the structural
coproduct, the polynomial-shifted grafting operators, and the canonical /
non-canonical change of representation.

A tree is stored as a root with decorations and a canonically sorted tuple of
branches, so isomorphic decorated trees (any child order) compare and hash
equal.  Edge decorations: type name, e (derivative), f (polynomial shift,
zero in the canonical representation).
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    FreeVector,
    Multi,
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


ODec = tuple[Multi, tuple[tuple[str, int], ...]]  # Z^d part, Z(L) part


def o_zero(d: int) -> ODec:
    return (mi_zero(d), ())


def o_add(a: ODec, b: ODec) -> ODec:
    zd = tuple(x + y for x, y in zip(a[0], b[0]))
    counts = dict(a[1])
    for name, m in b[1]:
        counts[name] = counts.get(name, 0) + m
    return (zd, tuple(sorted((n, m) for n, m in counts.items() if m)))


def o_is_zero(a: ODec) -> bool:
    return not any(a[0]) and not a[1]


@dataclass(frozen=True)
class Branch:
    edge_type: str
    e_dec: Multi
    f_dec: Multi
    child: "DecoratedTree"


@dataclass(frozen=True)
class DecoratedTree:
    dim: int
    n_dec: Multi
    o_dec: ODec
    branches: tuple[Branch, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.branches, key=_branch_key))
        object.__setattr__(self, "branches", ordered)

    @property
    def is_leaf(self) -> bool:
        return not self.branches

    @property
    def is_unit(self) -> bool:
        return not self.branches and not any(self.n_dec) and o_is_zero(self.o_dec)

    def with_root_n(self, k: Multi) -> "DecoratedTree":
        return DecoratedTree(self.dim, k, self.o_dec, self.branches)

    def edge_count(self) -> int:
        return sum(1 + b.child.edge_count() for b in self.branches)

    def __str__(self):
        return serialize(self)


@functools.lru_cache(maxsize=None)
def _branch_str(b: Branch) -> str:
    head = f"I[{b.edge_type};{mi_str(b.e_dec)}"
    if any(b.f_dec):
        head += f";{mi_str(b.f_dec)}"
    return head + f"]({serialize(b.child)})"


def _branch_key(b: Branch) -> str:
    return _branch_str(b)


@functools.lru_cache(maxsize=None)
def serialize(t: DecoratedTree) -> str:
    """Canonical parenthesised form; equal strings iff isomorphic trees."""
    bits = []
    if any(t.n_dec):
        bits.append("X" + mi_str(t.n_dec))
    bits.extend(_branch_str(b) for b in t.branches)
    body = "*".join(bits) if bits else "1"
    if not o_is_zero(t.o_dec):
        zd, zl = t.o_dec
        parts = [mi_str(zd)]
        if zl:
            parts.append("{" + ",".join(f"{n}:{m}" for n, m in zl) + "}")
        body = f"R[{';'.join(parts)}]({body})"
    return body


# -- constructors -------------------------------------------------------------

def unit_tree(dim: int) -> DecoratedTree:
    return DecoratedTree(dim, mi_zero(dim), o_zero(dim), ())


def x_power(dim: int, k: Multi) -> DecoratedTree:
    return DecoratedTree(dim, k, o_zero(dim), ())


def tree_product(a: DecoratedTree, b: DecoratedTree) -> DecoratedTree:
    """Identify roots; root decorations add; commutative up to isomorphism."""
    if a.dim != b.dim:
        raise ValueError("tree dimensions differ")
    return DecoratedTree(
        a.dim, mi_add(a.n_dec, b.n_dec), o_add(a.o_dec, b.o_dec), a.branches + b.branches
    )


def graft(edge_type: str, k: Multi, tau: DecoratedTree) -> DecoratedTree:
    """I_k^t(tau): new root, one edge of the given type with e-decoration k."""
    d = tau.dim
    return DecoratedTree(d, mi_zero(d), o_zero(d), (Branch(edge_type, k, mi_zero(d), tau),))


def graft_f(edge_type: str, k: Multi, l: Multi, tau: DecoratedTree) -> DecoratedTree:
    """Non-canonical edge with f-decoration l (the tree of the operator lI_k^t)."""
    d = tau.dim
    return DecoratedTree(d, mi_zero(d), o_zero(d), (Branch(edge_type, k, l, tau),))


def r_alpha(alpha: ODec, tau: DecoratedTree) -> DecoratedTree:
    """R_alpha: add alpha to the o-decoration at the root."""
    return DecoratedTree(tau.dim, tau.n_dec, o_add(tau.o_dec, alpha), tau.branches)


def x_mul(k: Multi, tau: DecoratedTree) -> DecoratedTree:
    return tau.with_root_n(mi_add(tau.n_dec, k))


# -- tree monomials (the plus side) -------------------------------------------

@dataclass(frozen=True)
class TreeMonomial:
    """Commutative monomial over integrated trees times X^k (element of T+)."""

    poly: Multi
    trees: tuple[tuple[DecoratedTree, int], ...]  # sorted by serialization

    def __post_init__(self):
        ordered = tuple(sorted(self.trees, key=lambda tm: serialize(tm[0])))
        object.__setattr__(self, "trees", ordered)

    @staticmethod
    def unit(dim: int) -> "TreeMonomial":
        return TreeMonomial(mi_zero(dim), ())

    @staticmethod
    def of_tree(t: DecoratedTree) -> "TreeMonomial":
        return TreeMonomial(mi_zero(t.dim), ((t, 1),))

    @staticmethod
    def of_poly(k: Multi) -> "TreeMonomial":
        return TreeMonomial(k, ())

    @property
    def is_poly(self) -> bool:
        return not self.trees

    @property
    def is_unit(self) -> bool:
        return not self.trees and not any(self.poly)

    def mul(self, other: "TreeMonomial") -> "TreeMonomial":
        counts: dict[DecoratedTree, int] = dict(self.trees)
        for t, m in other.trees:
            counts[t] = counts.get(t, 0) + m
        return TreeMonomial(mi_add(self.poly, other.poly), tuple(counts.items()))

    def __str__(self):
        bits = []
        if any(self.poly):
            bits.append("X" + mi_str(self.poly))
        for t, m in self.trees:
            s = serialize(t)
            bits.append(s if m == 1 else f"{s}^{m}")
        return ".".join(bits) if bits else "1"


class TreeAlgebra:
    """Coproduct and basis-change machinery for one family of edge types."""

    def __init__(self, dim: int, types: dict[str, Fraction]):
        self.dim = dim
        self.types = {k: Fraction(v) for k, v in types.items()}
        self._lock = threading.Lock()
        self._delta_memo: dict[DecoratedTree, FreeVector] = {}
        self._to_noncan_memo: dict[DecoratedTree, FreeVector] = {}
        self._to_can_memo: dict[DecoratedTree, FreeVector] = {}

    # -- homogeneity ----------------------------------------------------------

    def _o_homog(self, o: ODec) -> Fraction:
        h = Fraction(sum(o[0]))
        for name, m in o[1]:
            h += m * self.types[name]
        return h

    def homogeneity(self, t: DecoratedTree, with_f: bool = True) -> Fraction:
        """|tau| = |n| + |o| - |e| + |t| (+ |f| in the non-canonical form)."""
        h = Fraction(mi_abs(t.n_dec)) + self._o_homog(t.o_dec)
        for b in t.branches:
            if b.edge_type not in self.types:
                raise KeyError(f"unknown edge type {b.edge_type}")
            h += self.types[b.edge_type] - mi_abs(b.e_dec)
            if with_f:
                h += mi_abs(b.f_dec)
            h += self.homogeneity(b.child, with_f)
        return h

    # -- structural coproduct (canonical representation) -----------------------

    def delta(self, t: DecoratedTree) -> FreeVector:
        """Delta tau in T (x) T+, by the structural identities:
        Delta 1 = 1 (x) 1, Delta X_i primitive, multiplicativity,
        Delta I_k^t via (I_k^t (x) Id)Delta + truncated polynomial sum,
        Delta R_alpha = (R_alpha (x) Id)Delta.
        Keys are (DecoratedTree, TreeMonomial)."""
        with self._lock:
            hit = self._delta_memo.get(t)
        if hit is not None:
            return hit
        d = self.dim
        if not o_is_zero(t.o_dec):
            bare = DecoratedTree(d, t.n_dec, o_zero(d), t.branches)
            out = self.delta(bare).map_keys(
                lambda lr: (r_alpha(t.o_dec, lr[0]), lr[1])
            )
        elif t.is_leaf:
            # single node X^k
            out = poly_split(t.n_dec, lambda l: x_power(d, l), TreeMonomial.of_poly)
        elif any(t.n_dec) or len(t.branches) > 1:
            # factorise: X^n * product of single branches
            out = self.delta(x_power(d, t.n_dec))
            for b in t.branches:
                single = DecoratedTree(d, mi_zero(d), o_zero(d), (b,))
                out = out.tensor_mul(self.delta(single), tree_product, TreeMonomial.mul)
        else:
            (b,) = t.branches
            if any(b.f_dec):
                raise ValueError(
                    "delta is defined on canonical trees; expand f-decorations first"
                )
            tau = b.child
            k = b.e_dec
            tname = b.edge_type
            terms = []
            for (left, right), c in self.delta(tau).items():
                terms.append(((graft(tname, k, left), right), c))
            # strict truncation |l| + |k| < |tau| + |t| (ties excluded)
            room = self.homogeneity(tau) + self.types[tname] - mi_abs(k)
            for l in mi_below_abs(d, room):
                inner = graft(tname, mi_add(k, l), tau)
                terms.append(
                    (
                        (x_power(d, l), TreeMonomial.of_tree(inner)),
                        Fraction(1, mi_factorial(l)),
                    )
                )
            out = FreeVector(terms)
        with self._lock:
            self._delta_memo[t] = out
        return out

    def delta_plus_tree(self, t: DecoratedTree) -> FreeVector:
        """Delta+ of a positive integrated tree: same recursion with left
        factors reinterpreted in T+ and non-positive left trees projected out.
        Keys are (TreeMonomial, TreeMonomial)."""
        if len(t.branches) != 1 or any(t.n_dec) or not o_is_zero(t.o_dec):
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

    def tree_to_plus_monomial(self, t: DecoratedTree) -> TreeMonomial | None:
        """Reinterpret a tree X^a * prod branches as an element of T+;
        None if some integrated factor has non-positive homogeneity."""
        if not o_is_zero(t.o_dec):
            return None
        mono = TreeMonomial.of_poly(t.n_dec)
        for b in t.branches:
            single = DecoratedTree(t.dim, mi_zero(t.dim), o_zero(t.dim), (b,))
            if self.homogeneity(single) <= 0:
                return None
            mono = mono.mul(TreeMonomial.of_tree(single))
        return mono

    # -- grafting with polynomial shifts ----------------------------------------

    def ell_graft(self, l: Multi, k: Multi, tname: str, v) -> FreeVector:
        """lI_k^t(tau) = sum_m binom(l, m) X^m (-1)^{l-m} I_k^t(X^{l-m} tau),
        linear over FreeVectors of canonical trees."""
        return _shifted_grafts(l, v, lambda rest, tau: graft(tname, k, x_mul(rest, tau)))

    def inverse_graft(self, l: Multi, k: Multi, tname: str, v) -> FreeVector:
        """I_k^t(X^l tau) = sum_m binom(l,m) X^m (-1)^{l-m} {l-m}I_k^t(tau):
        the inversion formula, producing f-decorated trees."""
        return _shifted_grafts(l, v, lambda rest, tau: graft_f(tname, k, rest, tau))

    # -- canonical <-> non-canonical -------------------------------------------

    def to_canonical(self, t: DecoratedTree) -> FreeVector:
        """Expand every f-decorated edge by the definition of lI_k^t."""
        with self._lock:
            hit = self._to_can_memo.get(t)
        if hit is not None:
            return hit
        d = self.dim
        out = FreeVector.single(x_power(d, t.n_dec))
        for b in t.branches:
            child = self.to_canonical(b.child)
            if any(b.f_dec):
                branch_vec = FreeVector.zero()
                for tau, c in child.items():
                    branch_vec = branch_vec + self.ell_graft(
                        b.f_dec, b.e_dec, b.edge_type, tau
                    ).scale(c)
            else:
                branch_vec = FreeVector(
                    [(graft(b.edge_type, b.e_dec, tau), c) for tau, c in child.items()]
                )
            out = _fv_tree_mul(out, branch_vec)
        if not o_is_zero(t.o_dec):
            out = out.map_keys(lambda tr: r_alpha(t.o_dec, tr))
        with self._lock:
            self._to_can_memo[t] = out
        return out

    def to_noncanonical(self, t: DecoratedTree) -> FreeVector:
        """Expand a canonical tree over the f-decorated basis via the
        inversion formula; exact unitriangular change of basis."""
        with self._lock:
            hit = self._to_noncan_memo.get(t)
        if hit is not None:
            return hit
        d = self.dim
        out = FreeVector.single(x_power(d, t.n_dec))
        for b in t.branches:
            if any(b.f_dec):
                raise ValueError(f"{t} is not canonical (f-decorated edge)")
            child = self.to_noncanonical(b.child)
            branch_vec = FreeVector.zero()
            for tau, c in child.items():
                shift = tau.n_dec
                core = tau.with_root_n(mi_zero(d))
                branch_vec = branch_vec + self.inverse_graft(
                    shift, b.e_dec, b.edge_type, core
                ).scale(c)
            out = _fv_tree_mul(out, branch_vec)
        if not o_is_zero(t.o_dec):
            out = out.map_keys(lambda tr: r_alpha(t.o_dec, tr))
        with self._lock:
            self._to_noncan_memo[t] = out
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
        return DecoratedTree(t.dim, t.n_dec, t.o_dec, tuple(branches))

    def delta_noncanonical(self, t: DecoratedTree) -> FreeVector:
        """Delta of an f-tree with left factors re-expanded over the
        non-canonical basis.  Keys are (DecoratedTree[f], TreeMonomial)."""
        acc_terms: list = []
        for can, c in self.to_canonical(t).items():
            for (left, right), c2 in self.delta(can).items():
                for ftree, c3 in self.to_noncanonical(left).items():
                    acc_terms.append(((ftree, right), c * c2 * c3))
        return FreeVector(acc_terms)


def _shifted_grafts(l: Multi, v, grafted) -> FreeVector:
    """sum_m binom(l, m) X^m (-1)^{l-m} grafted(l - m, tau), linear over a
    FreeVector (or a single tree) v: the sum of ell_graft and inverse_graft."""
    if isinstance(v, DecoratedTree):
        v = FreeVector.single(v)
    out = []
    for tau, c in v.items():
        for m in mi_below(l):
            rest = mi_sub(l, m)
            out.append((x_mul(m, grafted(rest, tau)), c * mi_binom(l, m) * (-1) ** mi_abs(rest)))
    return FreeVector(out)


def _fv_tree_mul(a: FreeVector, b: FreeVector) -> FreeVector:
    out = []
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            out.append((tree_product(t1, t2), c1 * c2))
    return FreeVector(out)


# -- parsing of the canonical term grammar --------------------------------------
#
#   tree    := "1" | factor ("*" factor)*
#   factor  := "X" mi | "I[" name ";" mi (";" mi)? "](" tree ")" | "R[" odec "](" tree ")"
#   mi      := "(" int ("," int)* ")"
#   odec    := mi (";" "{" name ":" int ("," name ":" int)* "}")?
#
# Serialization emits factors in canonical sorted order, so parse(serialize(t))
# round-trips for every tree.

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
        while self.peek() and (self.peek().isalnum() or self.peek() in "_-"):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def mi(self) -> Multi:
        self.expect("(")
        out = [self.integer()]
        while self.peek() == ",":
            self.pos += 1
            out.append(self.integer())
        self.expect(")")
        if len(out) != self.dim:
            self.error(f"multi-index {tuple(out)} does not match dimension {self.dim}")
        return tuple(out)

    def odec(self) -> ODec:
        zd = self.mi()
        types: tuple[tuple[str, int], ...] = ()
        if self.peek() == ";":
            self.pos += 1
            self.expect("{")
            pairs = []
            while True:
                nm = self.name()
                self.expect(":")
                pairs.append((nm, self.integer()))
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
            self.expect("}")
            types = tuple(sorted(pairs))
        return (zd, types)

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
            return DecoratedTree(d, mi_zero(d), o_zero(d), (Branch(tname, e, f, child),))
        if self.text.startswith("R[", self.pos):
            self.pos += 2
            o = self.odec()
            self.expect("]")
            self.expect("(")
            inner = self.tree()
            self.expect(")")
            return r_alpha(o, inner)
        self.error("expected a tree factor ('1', 'X', 'I[' or 'R[')")

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
