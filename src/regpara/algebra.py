"""Exact symbolic engine for concrete regularity structures.

Bases are free commutative monoids over named generators together with
polynomial symbols X_i; all coefficients and homogeneities are exact
rationals, so coassociativity, comodule and grading identities are checked
with no floating error.
"""
from __future__ import annotations

import functools
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
    """Element of the free commutative monoid B+: prod of generators times X^k.

    A generator key is a name, or an integrated tree before export; keys are
    ordered and printed by `str` (for a tree, its serialization)."""

    gens: tuple[tuple[object, int], ...]  # sorted by str(key), mult > 0
    poly: Multi

    @staticmethod
    def unit(d: int) -> "PlusMonomial":
        return PlusMonomial((), mi_zero(d))

    @staticmethod
    def of_gen(key, d: int) -> "PlusMonomial":
        return PlusMonomial(((key, 1),), mi_zero(d))

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
        counts = dict(self.gens)
        for key, m in other.gens:
            counts[key] = counts.get(key, 0) + m
        return PlusMonomial(
            tuple(sorted(counts.items(), key=lambda km: str(km[0]))),
            mi_add(self.poly, other.poly),
        )

    def __str__(self):
        bits = []
        if any(self.poly):
            bits.append("X" + mi_str(self.poly))
        for key, m in self.gens:
            bits.append(str(key) if m == 1 else f"{key}^{m}")
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
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff:
                    old = data.get(key)
                    new = coeff if old is None else old + coeff
                    if new:
                        data[key] = new
                    else:
                        del data[key]
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

    def mul(self, other: "FreeVector", key_mul) -> "FreeVector":
        """Bilinear product: the sum of c1 c2 key_mul(a, b) over the terms
        c1 a of self and c2 b of other, in that order."""
        return FreeVector([(key_mul(k1, k2), c1 * c2)
                           for k1, c1 in self.terms.items() for k2, c2 in other.terms.items()])

    def tensor_mul(self, other: "FreeVector", mul_left, mul_right) -> "FreeVector":
        """Componentwise product of tensors: (a (x) b)(c (x) d) = ac (x) bd."""
        return self.mul(other, lambda x, y: (mul_left(x[0], y[0]), mul_right(x[1], y[1])))

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


def memoised(table: str):
    """Method decorator: memoise a one-argument method in the dict
    self.<table>.  The lookup and the store each hold self._lock; the value
    is computed outside it, so recursive calls do not deadlock and worker
    threads may read the tables."""
    def wrap(fn):
        @functools.wraps(fn)
        def method(self, key):
            memo = getattr(self, table)
            with self._lock:
                hit = memo.get(key)
            if hit is not None:
                return hit
            out = fn(self, key)
            with self._lock:
                memo[key] = out
            return out
        return method
    return wrap


def _as_gen(fv: FreeVector) -> str | None:
    """The name of the generator fv is, if fv is one generator with coefficient 1."""
    if len(fv) != 1:
        return None
    ((key, c),) = fv.items()
    if c == 1 and len(key.gens) == 1 and key.gens[0][1] == 1 and not any(key.poly):
        return key.gens[0][0]
    return None


def poly_right_witness(pairs) -> str | None:
    """The first `sigma (x) X^k in Delta(label)` with k != 0 over (label,
    coproduct) pairs, each coproduct in sorted order; None if there is none."""
    for label, coproduct in pairs:
        for (left, right), _c in coproduct.sorted_items():
            if right.is_poly and any(right.poly):
                return f"{left} (x) {right} in Delta({label})"
    return None


def check_coordinates(side: str, keys, coordinates: list) -> None:
    """ValueError naming every coordinate missing from keys and every key outside them."""
    missing = [str(c) for c in coordinates if c not in keys]
    extra = [str(k) for k in keys if k not in coordinates]
    if missing or extra:
        raise ValueError(f"{side}-brackets: missing {missing}, not coordinates {extra}")


def _mul_base_symbols(a: BaseSymbol, b: BaseSymbol) -> BaseSymbol:
    if a.core != "1" and b.core != "1":
        raise ValueError(f"cannot multiply base symbols {a} and {b}: B is an X_-module only")
    core = a.core if a.core != "1" else b.core
    return BaseSymbol(core, mi_add(a.poly, b.poly))


@dataclass(frozen=True)
class AssumptionReport:
    a_ok: bool
    a_failures: list[str]
    b_ok: bool
    b_failures: list[str]
    c_ok: bool
    c_generators: list[str]                 # the set G_o^+, in (homogeneity, name) order
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
        self._assumptions: AssumptionReport | None = None

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

    @memoised("_dplus_memo")
    def delta_plus(self, m: PlusMonomial) -> FreeVector:
        """Full coproduct of a monomial, multiplicative extension of the tables."""
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
        return out

    @memoised("_delta_memo")
    def delta(self, s: BaseSymbol) -> FreeVector:
        """Delta(X_^k sigma) = (Delta X_^k)(Delta sigma), values in T (x) T+."""
        if s.core not in self.base_gens:
            raise KeyError(f"unknown base generator {s.core}")
        if s.core != "1" and not any(s.poly):
            out = self.delta_table[s.core]
        else:
            out = poly_split(s.poly, lambda l: BaseSymbol("1", l), PlusMonomial.of_poly)
            if s.core != "1":
                out = out.tensor_mul(self.delta_table[s.core], _mul_base_symbols, PlusMonomial.mul)
        return out

    # -- derived operations ----------------------------------------------------

    def quotient(self, tau, sigma) -> FreeVector:
        """tau / sigma, the right factor over left slot sigma (zero if absent),
        read off Delta+ for a PlusMonomial tau and off Delta otherwise."""
        coproduct = self.delta_plus if isinstance(tau, PlusMonomial) else self.delta
        return FreeVector([(right, c) for (left, right), c in coproduct(tau).items()
                           if left == sigma])

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
        fact = mi_factorial(k)
        x_k = PlusMonomial.of_poly(k)
        return FreeVector([(right, c * fact * c2) for mono, c in v.items()
                           if self.homog_plus(mono) >= mi_abs(k)
                           for right, c2 in self.quotient(mono, x_k).items()])

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

    # -- free coordinates (the g-side ones: check_assumptions().c_generators) -----

    def pi_coordinates(self) -> list[str]:
        """The Pi-side coordinates: the negative base generators, in (homogeneity, name) order."""
        return sorted((n for n, h in self.base_gens.items() if h < 0),
                      key=lambda n: (self.base_gens[n], n))

    def md_coordinates(self, gamma) -> list[BaseSymbol]:
        """The (D)-mode md coordinates: the core symbols below gamma, in base_symbols order."""
        return [s for s in self.base_symbols(gamma) if not any(s.poly)]

    # -- assumption checks -------------------------------------------------------

    def check_assumptions(self) -> AssumptionReport:
        """Assumptions (A)-(D); each failure message names its witness.

        (A) coproduct shapes: diagonal and counit terms, grading,
        triangularity, no X^k (x) X^l.  (B) no quotient mixes T_X^+ and
        span(B+ - B_X^+).  (C) disjoint D^k-orbits, found in one sweep in
        decreasing (homogeneity, name) order: the first generator in no orbit
        yet is a root, and each D^k root, 0 < |k| < |root|, must be a generator
        in no orbit yet, else `D^k root = v is not a basis generator` or
        `D^k root = g is already D^l other`.  The sweep tests D^{k+e_i} root
        where a one-step scan tests D^{e_i} D^k root; the two agree whenever
        Delta+ is coassociative (`hopf_defects`).  (C-2) a middle term of
        Delta+ root with a factor outside the lower orbits, once per factor
        and term: `Delta+ root: factor g of ... is not built from strictly
        lower generators`.  (D) the first `sigma (x) X^k`, k != 0, in Delta of B.
        The tables are fixed at construction, so the first call's report is kept.
        """
        if self._assumptions is not None:
            return self._assumptions
        a_fail: list[str] = []
        b_fail: list[str] = []
        c_fail: list[str] = []

        # (A); positive plus-homogeneities are enforced at construction.
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

        # (B), over every mu in B below the cutoff
        symbols = self.base_symbols()
        for mu in symbols:
            by_left: dict[BaseSymbol, list[tuple[PlusMonomial, Fraction]]] = {}
            for (left, right), c in self.delta(mu).items():
                by_left.setdefault(left, []).append((right, c))
            for tau, rights in by_left.items():
                kinds = {mono.is_poly for mono, _ in rights}
                if len(kinds) > 1:
                    b_fail.append(f"{mu}/{tau} mixes T_X^+ and span(B+ - B_X^+)")

        # (C), the sweep; `found` maps each generator to (root, k)
        gens = sorted(self.plus_gens, key=lambda n: (self.plus_gens[n], n))
        found: dict[str, tuple[str, Multi]] = {}
        for root in reversed(gens):
            if root in found:
                continue
            found[root] = (root, mi_zero(self.dim))
            mono = PlusMonomial.of_gen(root, self.dim)
            for k in mi_below_abs(self.dim, self.plus_gens[root])[1:]:
                dk = self.d_op(k, mono)
                member = _as_gen(dk)
                if member is None:
                    c_fail.append(f"D^{mi_str(k)} {root} = {dk} is not a basis generator")
                elif member in found:
                    other, l = found[member]
                    c_fail.append(f"D^{mi_str(k)} {root} = {member} is already "
                                  f"D^{mi_str(l)} {other}")
                else:
                    found[member] = (root, k)
        orbit = {n: found[n] for n in gens}
        roots = [n for n in gens if orbit[n][0] == n]
        # (C-2), left slot and right quotient both
        for root in roots:
            h = self.plus_gens[root]
            for (left, right), _c in self.dplus_table[root].items():
                if left.is_poly or left == PlusMonomial.of_gen(root, self.dim):
                    continue
                for gname in dict.fromkeys(g for g, _m in left.gens + right.gens):
                    if self.plus_gens[orbit[gname][0]] >= h:
                        c_fail.append(f"Delta+ {root}: factor {gname} of {left} (x) {right} "
                                      f"is not built from strictly lower generators")

        d_witness = poly_right_witness(
            (core, self.delta_table[core])
            for core in sorted((n for n in self.base_gens if n != "1"),
                               key=lambda n: (self.base_gens[n], n)))

        self._assumptions = AssumptionReport(
            a_ok=not a_fail,
            a_failures=a_fail,
            b_ok=not b_fail,
            b_failures=b_fail,
            c_ok=not c_fail,
            c_generators=roots,
            c_orbit=orbit,
            c_failures=c_fail,
            d_ok=d_witness is None,
            d_witness=d_witness,
        )
        return self._assumptions

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

    def hopf_defects(self) -> list:
        """The generators at which Delta+ is not coassociative or Delta not
        coassociative against Delta+, plus side first, each side in
        (homogeneity, name) order; empty iff both identities hold on every
        monomial of B+ and every symbol of B below the cutoff.

        The plus side checks the plus-generators and the X_i below the
        cutoff; the base side the base generators below it, and the X_(e_i)
        when some X_^k sigma, k != 0, is below it.  That suffices: Delta+ is
        by construction the multiplicative extension of dplus_table and
        Delta(X_^k sigma) = (Delta X_^k)(Delta sigma), so both sides of each
        identity are algebra morphisms on T+ (T_X-module morphisms on T), and
        they agree on a product once they agree on its factors.  A monomial
        of B+ below the cutoff has only factors below it, plus-homogeneities
        being positive; X_^k sigma below it has sigma below it.
        """
        d = self.dim
        units = mi_range(d, 1)[1:]
        plus = [PlusMonomial.of_gen(n, d) for n in self.plus_gens]
        plus += [PlusMonomial.of_poly(e) for e in units]
        base = [BaseSymbol(n, mi_zero(d)) for n in self.base_gens if n != "1"]
        if self.beta0 + 1 < self.cutoff:
            base += [BaseSymbol("1", e) for e in units]
        plus = sorted((m for m in plus if self.homog_plus(m) < self.cutoff),
                      key=lambda m: (self.homog_plus(m), term_key(m)))
        base = sorted((s for s in base if s.is_poly or self.homog_base(s) < self.cutoff),
                      key=lambda s: (self.homog_base(s), term_key(s)))
        return ([m for m in plus if self.coassociativity_defect(m)]
                + [s for s in base if self.comodule_defect(s)])


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
