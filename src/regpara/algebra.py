"""Exact symbolic engine for concrete regularity structures.

Bases are free commutative monoids over named generators together with
polynomial symbols X_i; all coefficients and homogeneities are exact
rationals, so coassociativity, comodule and grading identities are checked
with no floating error.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

Multi = tuple[int, ...]


# -- multi-index helpers ------------------------------------------------------

def mi_zero(d: int) -> Multi:
    return (0,) * d


def mi_abs(k: Multi) -> int:
    return sum(k)


def mi_add(k: Multi, l: Multi) -> Multi:
    return tuple(a + b for a, b in zip(k, l))


def mi_sub(k: Multi, l: Multi) -> Multi | None:
    """k - l, or None if any component would go negative."""
    out = tuple(a - b for a, b in zip(k, l))
    return out if all(a >= 0 for a in out) else None


def mi_factorial(k: Multi) -> int:
    out = 1
    for a in k:
        out *= math.factorial(a)
    return out


def mi_binom(k: Multi, l: Multi) -> int:
    out = 1
    for a, b in zip(k, l):
        out *= math.comb(a, b)
    return out


def mi_range(d: int, max_abs: int) -> list[Multi]:
    """All multi-indices k in N^d with |k| <= max_abs, sorted."""
    out = []
    for total in range(max_abs + 1):
        for combo in itertools.product(range(total + 1), repeat=d):
            if sum(combo) == total:
                out.append(combo)
    return out


def mi_below_abs(d: int, bound) -> list[Multi]:
    """All multi-indices k in N^d with |k| < bound (strictly), sorted."""
    return mi_range(d, math.ceil(bound) - 1)


def mi_below(k: Multi) -> list[Multi]:
    """All l with l <= k componentwise."""
    return [l for l in itertools.product(*(range(a + 1) for a in k))]


def mi_str(k: Multi) -> str:
    return "(" + ",".join(str(a) for a in k) + ")"


# -- basis symbols ------------------------------------------------------------

@dataclass(frozen=True)
class PlusMonomial:
    """Element of the free commutative monoid B+: prod of generators times X^k."""

    gens: tuple[tuple[str, int], ...]  # sorted (name, multiplicity), mult > 0
    poly: Multi

    @staticmethod
    def unit(d: int) -> "PlusMonomial":
        return PlusMonomial((), mi_zero(d))

    @staticmethod
    def of_gen(name: str, d: int) -> "PlusMonomial":
        return PlusMonomial(((name, 1),), mi_zero(d))

    @staticmethod
    def of_poly(k: Multi) -> "PlusMonomial":
        return PlusMonomial((), k)

    @property
    def is_unit(self) -> bool:
        return not self.gens and not any(self.poly)

    @property
    def is_poly(self) -> bool:
        """True iff the monomial lies in B_X^+ (the unit included)."""
        return not self.gens

    def mul(self, other: "PlusMonomial") -> "PlusMonomial":
        counts: dict[str, int] = dict(self.gens)
        for name, m in other.gens:
            counts[name] = counts.get(name, 0) + m
        return PlusMonomial(
            tuple(sorted(counts.items())), mi_add(self.poly, other.poly)
        )

    def __str__(self):
        bits = []
        if any(self.poly):
            bits.append("X" + mi_str(self.poly))
        for name, m in self.gens:
            bits.append(name if m == 1 else f"{name}^{m}")
        return ".".join(bits) if bits else "1"


@dataclass(frozen=True)
class BaseSymbol:
    """Element X_^k sigma of the basis B, with core sigma in B. ("1" = unit)."""

    core: str
    poly: Multi

    @staticmethod
    def unit(d: int) -> "BaseSymbol":
        return BaseSymbol("1", mi_zero(d))

    @property
    def is_poly(self) -> bool:
        """True iff the symbol lies in B_X_ (pure underlined polynomial)."""
        return self.core == "1"

    def __str__(self):
        if not any(self.poly):
            return self.core
        x = "X_" + mi_str(self.poly)
        return x if self.core == "1" else f"{x}.{self.core}"


def poly_split(k: Multi, left, right) -> "FreeVector":
    """Delta X^k = sum_{l <= k} binom(k, l) left(l) (x) right(k - l)."""
    return FreeVector([((left(l), right(mi_sub(k, l))), mi_binom(k, l)) for l in mi_below(k)])


def term_key(key) -> str:
    """Canonical sort key for FreeVector serialization."""
    if isinstance(key, tuple):
        return " (x) ".join(term_key(k) for k in key)
    return str(key)


class FreeVector:
    """Finite rational linear combination of hashable basis keys.

    Keys are PlusMonomials, BaseSymbols, or 2-tuples thereof (tensors).
    Zero coefficients are never stored; equality is coefficient-wise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                coeff = Fraction(coeff)
                if coeff:
                    new = data.get(key, Fraction(0)) + coeff
                    if new:
                        data[key] = new
                    else:
                        data.pop(key, None)
        self.terms = data

    @staticmethod
    def single(key, coeff=1) -> "FreeVector":
        return FreeVector([(key, Fraction(coeff))])

    @staticmethod
    def zero() -> "FreeVector":
        return FreeVector()

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, FreeVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def items(self):
        return self.terms.items()

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: term_key(kv[0]))

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def __add__(self, other: "FreeVector") -> "FreeVector":
        out = dict(self.terms)
        for key, c in other.terms.items():
            new = out.get(key, Fraction(0)) + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        fv = FreeVector.__new__(FreeVector)
        fv.terms = out
        return fv

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return self + other.scale(-1)

    def scale(self, c) -> "FreeVector":
        c = Fraction(c)
        fv = FreeVector.__new__(FreeVector)
        fv.terms = {} if not c else {k: v * c for k, v in self.terms.items()}
        return fv

    def map_keys(self, fn) -> "FreeVector":
        return FreeVector([(fn(k), c) for k, c in self.terms.items()])

    def tensor_mul(self, other: "FreeVector", mul_left, mul_right) -> "FreeVector":
        """Componentwise product of tensors: (a (x) b)(c (x) d) = ac (x) bd."""
        out: dict = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                key = (mul_left(l1, l2), mul_right(r1, r2))
                new = out.get(key, Fraction(0)) + c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        fv = FreeVector.__new__(FreeVector)
        fv.terms = out
        return fv

    def serialize(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, c in self.sorted_items():
            bits.append(f"{c} {term_key(key)}")
        return " + ".join(bits)

    def __str__(self):
        return self.serialize()

    def __repr__(self):
        return f"FreeVector({self.serialize()})"


def _mul_base_symbols(a: BaseSymbol, b: BaseSymbol) -> BaseSymbol:
    if a.core != "1" and b.core != "1":
        raise ValueError(f"cannot multiply base symbols {a} and {b}: B is an X_-module only")
    core = a.core if a.core != "1" else b.core
    return BaseSymbol(core, mi_add(a.poly, b.poly))


@dataclass
class AssumptionReport:
    a_ok: bool
    a_failures: list[str]
    b_ok: bool
    b_failures: list[str]
    c_ok: bool
    c_generators: list[str]                 # the set G_o^+
    c_orbit: dict[str, tuple[str, Multi]]   # gen -> (orbit root, k) with gen = D^k root
    c_failures: list[str]
    d_ok: bool
    d_witness: str | None

    def lines(self) -> list[str]:
        out = [
            f"assumption_A {'pass' if self.a_ok else 'fail'}",
            f"assumption_B {'pass' if self.b_ok else 'fail'}",
            f"assumption_C {'pass' if self.c_ok else 'fail'}",
            f"assumption_D {'pass' if self.d_ok else 'fail'}",
        ]
        for msg in self.a_failures:
            out.append(f"A_failure {msg}")
        for msg in self.b_failures:
            out.append(f"B_failure {msg}")
        for msg in self.c_failures:
            out.append(f"C_failure {msg}")
        if self.c_ok:
            out.append("C_generators " + " ".join(self.c_generators))
        if self.d_witness:
            out.append(f"D_witness {self.d_witness}")
        return out

    @property
    def all_ok(self):
        return self.a_ok and self.b_ok and self.c_ok and self.d_ok


class ConcreteRegularityStructure:
    """Graded bases B+/B with coproduct tables and exact coproduct extension.

    Coproducts are stored per generator and extended multiplicatively on
    demand with memoisation; memo tables are guarded by a lock so reads from
    worker threads are safe.
    """

    def __init__(
        self,
        dim: int,
        cutoff: Fraction,
        plus_gens: dict[str, Fraction],
        base_gens: dict[str, Fraction],
        dplus_table: dict[str, FreeVector],
        delta_table: dict[str, FreeVector],
        name: str = "structure",
    ):
        self.dim = dim
        self.cutoff = Fraction(cutoff)
        self.plus_gens = {k: Fraction(v) for k, v in plus_gens.items()}
        self.base_gens = {k: Fraction(v) for k, v in base_gens.items()}
        self.dplus_table = dict(dplus_table)
        self.delta_table = dict(delta_table)
        self.name = name
        self._lock = threading.Lock()
        self._dplus_memo: dict[PlusMonomial, FreeVector] = {}
        self._delta_memo: dict[BaseSymbol, FreeVector] = {}

        if "1" not in self.base_gens or self.base_gens["1"] != 0:
            raise ValueError("structure must declare the unit base generator '1' at homogeneity 0")
        for name_, h in self.plus_gens.items():
            if h <= 0:
                raise ValueError(f"plus-generator {name_} must have positive homogeneity, got {h}")
        for name_, h in self.base_gens.items():
            if name_ != "1" and h == 0:
                raise ValueError(f"only '1' may sit at homogeneity 0, got {name_}")
        for name_ in self.plus_gens:
            if name_ not in self.dplus_table:
                raise ValueError(f"missing Delta+ table entry for plus-generator {name_}")
        for name_ in self.base_gens:
            if name_ != "1" and name_ not in self.delta_table:
                raise ValueError(f"missing Delta table entry for base generator {name_}")

    # -- homogeneity --------------------------------------------------------

    def homog_plus(self, m: PlusMonomial) -> Fraction:
        h = Fraction(mi_abs(m.poly))
        for name, mult in m.gens:
            if name not in self.plus_gens:
                raise KeyError(f"unknown plus-generator {name}")
            h += self.plus_gens[name] * mult
        return h

    def homog_base(self, s: BaseSymbol) -> Fraction:
        if s.core not in self.base_gens:
            raise KeyError(f"unknown base generator {s.core}")
        return self.base_gens[s.core] + mi_abs(s.poly)

    @property
    def beta0(self) -> Fraction:
        return min(self.base_gens.values())

    # -- coproducts ----------------------------------------------------------

    def delta_plus(self, m: PlusMonomial) -> FreeVector:
        """Full coproduct of a monomial, multiplicative extension of the tables."""
        with self._lock:
            hit = self._dplus_memo.get(m)
        if hit is not None:
            return hit
        if m.is_unit:
            out = FreeVector.single((m, m))
        elif any(m.poly):
            out = poly_split(m.poly, PlusMonomial.of_poly, PlusMonomial.of_poly)
            if m.gens:
                out = out.tensor_mul(self.delta_plus(PlusMonomial(m.gens, mi_zero(self.dim))),
                                     PlusMonomial.mul, PlusMonomial.mul)
        else:
            name, mult = m.gens[0]
            if name not in self.plus_gens:
                raise KeyError(f"unknown plus-generator {name}")
            head = self.dplus_table[name]
            rest_gens = ((name, mult - 1),) + m.gens[1:] if mult > 1 else m.gens[1:]
            rest = PlusMonomial(rest_gens, mi_zero(self.dim))
            if rest.is_unit:
                out = head
            else:
                out = head.tensor_mul(
                    self.delta_plus(rest), PlusMonomial.mul, PlusMonomial.mul
                )
        with self._lock:
            self._dplus_memo[m] = out
        return out

    def delta(self, s: BaseSymbol) -> FreeVector:
        """Delta(X_^k sigma) = (Delta X_^k)(Delta sigma), values in T (x) T+."""
        with self._lock:
            hit = self._delta_memo.get(s)
        if hit is not None:
            return hit
        if s.core not in self.base_gens:
            raise KeyError(f"unknown base generator {s.core}")
        if s.core != "1" and not any(s.poly):
            out = self.delta_table[s.core]
        else:
            out = poly_split(s.poly, lambda l: BaseSymbol("1", l), PlusMonomial.of_poly)
            if s.core != "1":
                out = out.tensor_mul(self.delta_table[s.core], _mul_base_symbols, PlusMonomial.mul)
        with self._lock:
            self._delta_memo[s] = out
        return out

    # -- derived operations ----------------------------------------------------

    def quotient_plus(self, tau: PlusMonomial, sigma: PlusMonomial) -> FreeVector:
        """tau /+ sigma, the right factor over left slot sigma (zero if absent)."""
        out = []
        for (left, right), c in self.delta_plus(tau).items():
            if left == sigma:
                out.append((right, c))
        return FreeVector(out)

    def quotient_base(self, tau: BaseSymbol, sigma: BaseSymbol) -> FreeVector:
        out = []
        for (left, right), c in self.delta(tau).items():
            if left == sigma:
                out.append((right, c))
        return FreeVector(out)

    def delta_plus_terms(self, v, left_poly: bool | None = None):
        """(c, left, right) for every term of Delta+ v, v a monomial or a
        FreeVector: v's monomials in sorted order, each coproduct sorted, c
        the exact product of the two coefficients.  left_poly=True keeps the
        terms with left in B_X^+, False those outside it, None all."""
        if isinstance(v, PlusMonomial):
            v = FreeVector.single(v)
        for mono, c in v.sorted_items():
            for (left, right), c2 in self.delta_plus(mono).sorted_items():
                if left_poly is None or left.is_poly == left_poly:
                    yield c * c2, left, right

    def d_op(self, k: Multi, v) -> FreeVector:
        """D^k: k! times the right factor over left slot X^k; linear in v."""
        if isinstance(v, PlusMonomial):
            v = FreeVector.single(v)
        out = FreeVector.zero()
        fact = mi_factorial(k)
        for mono, c in v.items():
            if self.homog_plus(mono) < mi_abs(k):
                continue
            out = out + self.quotient_plus(mono, PlusMonomial.of_poly(k)).scale(c * fact)
        return out

    # -- enumeration -----------------------------------------------------------

    def plus_monomials(self, bound: Fraction | None = None) -> list[PlusMonomial]:
        """All monomials of B+ with homogeneity < bound, sorted by (homog, key)."""
        if bound is None:
            bound = self.cutoff
        bound = Fraction(bound)
        gens = sorted(self.plus_gens.items())
        partial: list[tuple[tuple[tuple[str, int], ...], Fraction]] = [((), Fraction(0))]
        for name, h in gens:
            new = []
            for combo, tot in partial:
                mult = 0
                cur = tot
                while cur < bound:
                    new.append((combo + (((name, mult),) if mult else ()), cur))
                    mult += 1
                    cur = tot + h * mult
            partial = [
                (tuple((n, m) for n, m in combo if m > 0), tot) for combo, tot in new
            ]
        out = [PlusMonomial(tuple(sorted(combo)), k)
               for combo, tot in partial for k in mi_below_abs(self.dim, bound - tot)]
        out.sort(key=lambda m: (self.homog_plus(m), term_key(m)))
        return out

    def base_symbols(self, bound: Fraction | None = None) -> list[BaseSymbol]:
        """All X_^k sigma with homogeneity < bound, sorted by (homog, key)."""
        if bound is None:
            bound = self.cutoff
        bound = Fraction(bound)
        out = [BaseSymbol(core, k) for core, h in sorted(self.base_gens.items())
               for k in mi_below_abs(self.dim, bound - h)]
        out.sort(key=lambda s: (self.homog_base(s), term_key(s)))
        return out

    # -- assumption checks -------------------------------------------------------

    def check_assumptions(self) -> AssumptionReport:
        a_fail: list[str] = []
        b_fail: list[str] = []
        c_fail: list[str] = []

        # (A): positive plus-homogeneities are enforced at construction; check
        # coproduct shapes and the no-X^k (x) X^l conditions on generators.
        for name in sorted(self.plus_gens):
            mono = PlusMonomial.of_gen(name, self.dim)
            h = self.plus_gens[name]
            dp = self.dplus_table[name]
            if dp.coeff((mono, PlusMonomial.unit(self.dim))) != 1:
                a_fail.append(f"Delta+ {name} misses the diagonal term {name} (x) 1")
            if dp.coeff((PlusMonomial.unit(self.dim), mono)) != 1:
                a_fail.append(f"Delta+ {name} misses the counit term 1 (x) {name}")
            for (left, right), c in dp.items():
                if self.homog_plus(left) + self.homog_plus(right) != h:
                    a_fail.append(
                        f"Delta+ {name}: term {left} (x) {right} breaks the grading"
                    )
                if left.is_poly and right.is_poly and not (left.is_unit or right.is_unit):
                    a_fail.append(f"Delta+ {name}: polynomial term {left} (x) {right}")
                hl = self.homog_plus(left)
                if not (left == mono or left.is_unit) and not (0 < hl < h):
                    a_fail.append(
                        f"Delta+ {name}: middle term {left} (x) {right} not triangular"
                    )
        for name in sorted(self.base_gens):
            if name == "1":
                continue
            sym = BaseSymbol(name, mi_zero(self.dim))
            h = self.base_gens[name]
            dl = self.delta_table[name]
            if dl.coeff((sym, PlusMonomial.unit(self.dim))) != 1:
                a_fail.append(f"Delta {name} misses the diagonal term {name} (x) 1")
            for (left, right), c in dl.items():
                if self.homog_base(left) + self.homog_plus(right) != h:
                    a_fail.append(f"Delta {name}: term {left} (x) {right} breaks the grading")
                if left != sym and not (self.homog_base(left) < h):
                    a_fail.append(f"Delta {name}: term {left} (x) {right} not triangular")
                if left.is_poly and right.is_poly and not right.is_unit:
                    a_fail.append(f"Delta {name}: polynomial term {left} (x) {right}")

        # (B): every quotient mu/tau of basis elements below cutoff is either in
        # T_X^+ or in span(B+ \ B_X^+); mixed quotients are failures.
        symbols = self.base_symbols()
        for mu in symbols:
            by_left: dict[BaseSymbol, list[tuple[PlusMonomial, Fraction]]] = {}
            for (left, right), c in self.delta(mu).items():
                by_left.setdefault(left, []).append((right, c))
            for tau, rights in by_left.items():
                kinds = {mono.is_poly for mono, _ in rights}
                if len(kinds) > 1:
                    b_fail.append(f"{mu}/{tau} mixes T_X^+ and span(B+ - B_X^+)")

        # (C): orbit decomposition of the plus-generators under D^k.  One-step
        # edges nu -> D^{e_i} nu suffice (D^k D^l = D^{k+l}); a generator may
        # have several one-step parents inside one orbit, but they must all
        # resolve to the same root.
        gens = sorted(self.plus_gens, key=lambda n: (self.plus_gens[n], n))

        def _as_gen(fv: FreeVector) -> str | None:
            if len(fv) != 1:
                return None
            ((key, c),) = fv.items()
            if (
                c == 1
                and not key.is_poly
                and len(key.gens) == 1
                and key.gens[0][1] == 1
                and not any(key.poly)
            ):
                return key.gens[0][0]
            return None

        parents: dict[str, set[str]] = {n: set() for n in gens}
        for name in gens:
            mono = PlusMonomial.of_gen(name, self.dim)
            h = self.plus_gens[name]
            for i in range(self.dim):
                e = tuple(1 if a == i else 0 for a in range(self.dim))
                if h <= 1:
                    continue
                dk = self.d_op(e, mono)
                if not dk:
                    c_fail.append(f"D^{mi_str(e)} {name} vanishes below |{name}|")
                    continue
                target = _as_gen(dk)
                if target is None:
                    c_fail.append(f"D^{mi_str(e)} {name} = {dk} is not a basis generator")
                else:
                    parents[target].add(name)

        roots = [n for n in gens if not parents[n]]
        root_of: dict[str, str] = {}

        def _resolve(n: str, seen: tuple[str, ...] = ()) -> str | None:
            if n in root_of:
                return root_of[n]
            if n in seen:
                c_fail.append(f"cyclic D^k chain through {n}")
                return None
            if not parents[n]:
                root_of[n] = n
                return n
            ups = {_resolve(p, seen + (n,)) for p in sorted(parents[n])}
            if None in ups:
                return None
            if len(ups) != 1:
                c_fail.append(f"{n} reaches several orbit roots {sorted(ups)}")
                return None
            root_of[n] = ups.pop()
            return root_of[n]

        for n in gens:
            _resolve(n)
        # exact k for each orbit member, by matching D^k root against it
        orbit: dict[str, tuple[str, Multi]] = {}
        for n in gens:
            root = root_of.get(n)
            if root is None:
                continue
            if root == n:
                orbit[n] = (n, mi_zero(self.dim))
                continue
            drop = self.plus_gens[root] - self.plus_gens[n]
            found = None
            if drop == int(drop) and drop > 0:
                mono = PlusMonomial.of_gen(root, self.dim)
                for k in mi_range(self.dim, int(drop)):
                    if mi_abs(k) == drop and _as_gen(self.d_op(k, mono)) == n:
                        found = k
                        break
            if found is None:
                c_fail.append(f"{n} is in the orbit of {root} but no D^k {root} equals it")
            else:
                orbit[n] = (root, found)
        # verify the disjoint-union cover: D^k root is a generator for every
        # admissible k (|k| < |root|)
        for root in roots:
            h = self.plus_gens[root]
            mono = PlusMonomial.of_gen(root, self.dim)
            for k in mi_below_abs(self.dim, h):
                if not any(k):
                    continue
                if _as_gen(self.d_op(k, mono)) is None:
                    c_fail.append(
                        f"orbit of {root}: D^{mi_str(k)} is not a basis generator"
                    )
        # (C-2): middle terms of Delta+ on the roots must live in the submonoid
        # generated by strictly lower orbits (left slot and right quotient both).
        for root in roots:
            h = self.plus_gens[root]
            for (left, right), _c in self.dplus_table[root].items():
                if left.is_poly:
                    continue
                if left == PlusMonomial.of_gen(root, self.dim):
                    continue
                for gname, _m in left.gens + right.gens:
                    groot = root_of.get(gname)
                    if groot is None or self.plus_gens[groot] >= h:
                        c_fail.append(
                            f"Delta+ {root}: factor {gname} of {left} (x) {right} "
                            f"is not built from strictly lower generators"
                        )

        # (D): scan Delta tau, tau in B., for sigma (x) X^k terms with k != 0.
        d_witness = None
        for core in sorted(
            (n for n in self.base_gens if n != "1"),
            key=lambda n: (self.base_gens[n], n),
        ):
            for (left, right), c in self.delta_table[core].sorted_items():
                if right.is_poly and any(right.poly):
                    d_witness = f"{left} (x) {right} in Delta({core})"
                    break
            if d_witness:
                break

        return AssumptionReport(
            a_ok=not a_fail,
            a_failures=a_fail,
            b_ok=not b_fail,
            b_failures=b_fail,
            c_ok=not c_fail,
            c_generators=[r for r in roots],
            c_orbit=orbit,
            c_failures=c_fail,
            d_ok=d_witness is None,
            d_witness=d_witness,
        )

    # -- coassociativity / comodule (exact) ---------------------------------------

    def coaction_defect(self, coaction, x) -> FreeVector:
        """(coaction (x) Id) coaction x - (Id (x) Delta+) coaction x, keyed by
        triples; zero iff the coaction is coassociative against Delta+ at x."""
        lhs: list = []
        rhs: list = []
        for (left, right), c in coaction(x).items():
            for (a, b), c2 in coaction(left).items():
                lhs.append(((a, b, right), c * c2))
            for (a, b), c2 in self.delta_plus(right).items():
                rhs.append(((left, a, b), c * c2))
        return FreeVector(lhs) - FreeVector(rhs)

    def coassociativity_defect(self, m: PlusMonomial) -> FreeVector:
        """(Delta+ (x) Id)Delta+ - (Id (x) Delta+)Delta+ on m; zero iff exact."""
        return self.coaction_defect(self.delta_plus, m)

    def comodule_defect(self, s: BaseSymbol) -> FreeVector:
        """(Delta (x) Id)Delta - (Id (x) Delta+)Delta on s; zero iff exact."""
        return self.coaction_defect(self.delta, s)


def polynomial_structure(dim: int, cutoff) -> ConcreteRegularityStructure:
    """The Taylor polynomial ring T_X as a concrete regularity structure."""
    return ConcreteRegularityStructure(
        dim=dim,
        cutoff=Fraction(cutoff),
        plus_gens={},
        base_gens={"1": Fraction(0)},
        dplus_table={},
        delta_table={},
        name="polynomial",
    )
