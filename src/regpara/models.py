"""Models on concrete regularity structures and the paracontrolled bracket
calculus: extraction of bracket data from models, and reconstruction of the
Pi and g components from free bracket data.

Both run one triangular recursion through `BracketExtractor.step`: extraction
<tau> = Pi tau - sum c P^m_{g(tau/sigma)} <sigma> over the terms c sigma (x)
tau/sigma of Delta tau, sigma < tau (sign -1), and reconstruction
Pi tau = <tau> + the same sum (sign +1); likewise for g(tau).  Every sum of
paraproducts, a step's (`BracketExtractor.block_sum`, the md sigma-steps'
too) or reconstruct_family's, is one `paraproduct_sum`.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    BaseSymbol,
    ConcreteRegularityStructure,
    FreeVector,
    PlusMonomial,
    check_coordinates,
    mi_abs,
    mi_zero,
    term_key,
)
from .blocks import derivative, make_partition
from .characters import Character, field_character
from .grid import Field, Grid
from .norms import SLOPE_TOL, Report, SeparableFamily, holder_norm, synthesize
from .paraproducts import hold_rows, paraproduct_sum, release_rows


def default_m(structure: ConcreteRegularityStructure) -> int:
    """The global modified-paraproduct order: ceil(cutoff) + 1."""
    return int(math.ceil(structure.cutoff)) + 1


def plus_bound(structure: ConcreteRegularityStructure) -> Fraction:
    """Homogeneity bound for the plus-monomials touched by the calculus."""
    b0 = structure.beta0
    return structure.cutoff + (-b0 if b0 < 0 else Fraction(0)) + Fraction(1, 1000)


class Model:
    """A rapidly decreasing model (g, Pi) sampled on a periodic grid.

    g is a field-valued character; pi maps base-generator names to fields.
    Conditions (a) and (c) of the model definition hold by construction:
    polynomial values come from true box coordinates and
    Pi(X_^k sigma) = x^k Pi(sigma) pointwise.
    """

    def __init__(self, structure: ConcreteRegularityStructure, grid: Grid,
                 g: Character, pi: dict[str, np.ndarray]):
        self.structure = structure
        self.grid = grid
        self.g = g
        self.pi = dict(pi)
        self.pi.setdefault("1", np.ones(grid.shape))
        self._g_inv: Character | None = None
        self._diag: dict = {}
        self._md_sums: dict = {}

    @property
    def g_inv(self) -> Character:
        if self._g_inv is None:
            self._g_inv = self.g.invert()
        return self._g_inv

    def holding_fields(self) -> "Model":
        """A copy of this model that evaluates each g and g^{-1} field once
        and holds it; all else, the inverse and the memos too, is shared."""
        held = copy.copy(self)
        held._g_inv = self.g_inv
        held.g_field = functools.cache(self.g_field)
        held.g_inv_field = functools.cache(self.g_inv_field)
        return held

    def g_field(self, v) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.g(v), dtype=float), self.grid.shape)

    def g_inv_field(self, v) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.g_inv(v), dtype=float), self.grid.shape)

    def pi_symbol(self, s: BaseSymbol) -> np.ndarray:
        if s.core not in self.pi:
            raise KeyError(f"model has no Pi data for {s.core}")
        out = self.pi[s.core]
        if any(s.poly):
            out = self.grid.poly(s.poly) * out
        return out

    def md_sum(self, sigma: BaseSymbol, coeffs: tuple, form) -> np.ndarray:
        """T_sigma = sum_mu P_{f_mu} <mu/sigma>^g of the md sigma-step
        (m = 0), coeffs the arrays f_mu in the order of sigma's quotients,
        formed by form() unless the model holds it.

        The model keeps one sum per sigma with the f_mu it was formed from,
        and returns it while every f_mu asked for is that array or has the
        same bits; a new tuple replaces the entry, so there are never more
        entries than sigmas.  It is kept only if every f_mu is read-only and
        owns its data (the values of a Field): a writable array could change
        after its sum was formed.  g and Pi are set once, so no <mu/sigma>^g
        goes stale.  It pays: md_to reads md_from's coefficient arrays, and
        a general-mode rebuild has their bits.
        """
        hit = self._md_sums.get(sigma)
        if hit and len(hit[0]) == len(coeffs) and all(map(_same_bits, hit[0], coeffs)):
            return hit[1]
        total = form()
        if all(not f.flags.writeable and f.flags.owndata for f in coeffs):
            self._md_sums[sigma] = (coeffs, total)
        return total

    def pi_recentered_family(self, t: BaseSymbol) -> SeparableFamily:
        """Pi^g_x t = sum_{s <= t} Pi(s) g_x^{-1}(t/s) as a separable family
        (coefficient in x, field in y)."""
        terms = []
        for (left, right), c in self.structure.delta(t).sorted_items():
            coef = float(c) * self.g_inv_field(right)
            terms.append((coef, self.pi_symbol(left)))
        return SeparableFamily(self.grid, terms)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """a is b, or two float arrays of one shape with equal bit patterns (so
    -0.0 and 0.0 differ, as they may in a product formed from them)."""
    if a is b:
        return True
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


# -- diagonal spectral derivatives ----------------------------------------------

def diag_derivative(model: Model, mono: PlusMonomial, k) -> np.ndarray:
    """The field x -> d^k_y g_y(mono) |_{y=x}, computed spectrally.

    Coordinate fields are smooth-periodic, so the whole monomial field passes
    through the FFT with no wrap artifacts; interior values agree with the
    true polynomial derivative.  Computed once per (mono, k) and model, as
    md_from's derivative formula, its structure-condition check and
    validate_model ask for the same (mono, k) many times; g is set once per
    generator, so a stored value never goes stale.
    """
    if not any(k):
        return model.g_field(mono)
    hit = model._diag.get((mono, k))
    if hit is None:
        hit = model._diag[(mono, k)] = derivative(Field(model.grid, model.g_field(mono)), k).values
    return hit


def diag_two_point(model: Model, v, k) -> np.ndarray:
    """The field x -> d^k_y g_{yx}(v) |_{y=x} for a monomial or FreeVector v,
    expanded over Delta+ as sum d^k g(a) * g^{-1}(b)."""
    acc = np.zeros(model.grid.shape)
    for c, a, b in model.structure.delta_plus_terms(v):
        acc += float(c) * diag_derivative(model, a, k) * model.g_inv_field(b)
    return acc


# -- bracket extraction -----------------------------------------------------------

@dataclass
class BracketData:
    """Extracted paracontrolled coordinates of a model."""

    m: int
    g_side: dict[PlusMonomial, np.ndarray]
    pi_side: dict[BaseSymbol, np.ndarray]
    # one check per bracket, `g_bracket <mono>` then `pi_bracket <sym>`
    report: Report | None = None


class BracketExtractor:
    """Lazy evaluation of the bracket recursions over one model.

    Every recursion is `step(start, terms, sign)` = start + sign * sum c P^m_f u
    over (c, f, u) in terms, the sum one block sum over the terms
    (`paraproducts.paraproduct_sum`), so a step of k terms makes the
    transforms of one product.  Over the terms c nu (x) tau/nu of the
    coproduct, extraction takes sign = -1:

    g-side:  <tau>^{m,g}  = g(tau)  - sum_{1 < nu < tau, nu not poly} c P^m_{g(tau/nu)} <nu>^{m,g}
    Pi-side: <sigma>^{m,M} = Pi sigma - sum_{mu < sigma, mu not in B_X_} c P^m_{g(sigma/mu)} <mu>^{m,M}

    and reconstruction (build_g, build_pi) sign = +1, from the bracket.

    Brackets and the coefficients g(tau/sigma), one per quotient whatever
    the c of its terms, are kept as Fields, as each is an operand of the
    steps of every bracket above it: each is evaluated and
    forward-transformed once per extractor.

    `brackets(g_keys, pi_keys)` plans before it forms anything, so that the
    operand rows (`paraproducts`) of each coefficient and bracket are formed
    once.  The plan counts, from the coproducts alone, the products that
    read each of them, a coefficient's apart from a bracket's (a monomial
    can be both, as toy's I[t](I[xi]) is), and the one other read of each
    coefficient g(tau): the start of the g-step of tau.  A Field is held
    before each product of it but its last, so it keeps its rows from its
    first product to its last, and it is released after that; a coefficient
    leaves the memo at its last read.  `pi_step` plans the Pi-brackets of
    md_to's reconstruction step with that step's reads of them.  The terms
    of a step are drawn one at a time, each after the rows of the one before
    are formed, so a release comes after the product that was its operand's
    last.  An extractor without a plan (build_g, build_pi, the md
    sigma-steps) holds each bracket it memoizes, for its own life, and no
    coefficient; nothing leaves its memo.
    """

    def __init__(self, model: Model, m: int):
        self.model = model
        self.m = m
        self.decomp = make_partition(model.grid)
        self._g_memo: dict[PlusMonomial, Field] = {}
        self._pi_memo: dict[BaseSymbol, Field] = {}
        self._coef_memo: dict[PlusMonomial, Field] = {}
        # reads still to come: ("f", quot) by products of the coefficient
        # g(quot), ("g", sigma) by those of the bracket of sigma, ("start",
        # tau) by the start of the g-step of tau; None without a plan
        self._reads: Counter | None = None

    def brackets(self, g_keys, pi_keys) -> tuple[dict, dict]:
        """The g-brackets of g_keys, then the Pi-brackets of pi_keys, as
        Fields, their products planned first."""
        self._plan(g_keys, pi_keys)
        g_side = {mono: self.g_bracket(mono) for mono in g_keys}
        return g_side, {sym: self.pi_bracket(sym) for sym in pi_keys}

    def _plan(self, g_keys, pi_keys) -> None:
        """Count the reads of the recursions of the g-brackets of g_keys and
        the Pi-brackets of pi_keys."""
        S = self.model.structure
        reads, seen = Counter(), set()
        todo = [(mono, False) for mono in g_keys] + [(sym, True) for sym in pi_keys]
        while todo:
            tau, pi_side = todo.pop()
            if tau in seen:
                continue
            seen.add(tau)
            if not pi_side:
                reads["start", tau] += 1
            for _c, quot, sigma in self.term_keys(tau, S.delta(tau) if pi_side else S.delta_plus(tau)):
                reads["f", quot] += 1
                reads["g", sigma] += 1
                todo.append((sigma, pi_side))
        self._reads = reads

    def _read(self, key, field: Field, side: str, product: bool = True) -> None:
        """One planned read of `field`, the Field of key: by a product, as
        its `side` operand, "f" (a coefficient) or "g" (a bracket), or else
        as the start of the g-step of key.  After its last product, its
        `side` rows are released; after its last read, a coefficient leaves
        the memo.  Unplanned reads change nothing."""
        kind, reads = side if product else "start", self._reads
        if reads is None or not reads[kind, key]:
            return
        reads[kind, key] -= 1
        if product and not reads[kind, key]:
            release_rows(field, side)
        if side == "f" and not (reads["f", key] or reads["start", key]):
            del self._coef_memo[key]

    def step(self, start, terms, sign: int = -1) -> np.ndarray:
        """start + sign * sum_{(c, f, u) in terms} c P^m_f u, the sum
        `block_sum` of the terms; start is a Field or an array."""
        return self.add(start, self.block_sum(terms), sign)

    def block_sum(self, terms) -> np.ndarray | None:
        """sum_{(c, f, u) in terms} c P^m_f u as one block sum
        (`paraproducts.paraproduct_sum`) over the terms, drawn in order and
        each before the next, so that k terms make the transforms of one
        product; f and u are Fields or arrays.  None for no term."""
        terms = iter(terms)
        first = next(terms, None)
        if first is None:
            return None
        fields = ((c, *self._fields(f, u)) for c, f, u in itertools.chain([first], terms))
        return paraproduct_sum(self.decomp, self.m, fields).values

    @staticmethod
    def add(start, total: np.ndarray | None, sign: int) -> np.ndarray:
        """start + sign * total into a new array; a copy of start, made
        without a transform, when total is None (a step with no term)."""
        start = start.values if isinstance(start, Field) else start
        if total is None:
            return np.array(start, dtype=float)
        return np.subtract(start, total) if sign < 0 else np.add(start, total)

    def _fields(self, f, u) -> tuple[Field, Field]:
        return tuple(x if isinstance(x, Field) else Field(self.model.grid, x) for x in (f, u))

    def coefficient(self, quot: PlusMonomial) -> Field:
        """g(quot) as a read-only Field, one per quotient and extractor: the
        operand of every coproduct term c sigma (x) quot, whatever its c.  g
        is set once, so a kept entry never goes stale."""
        hit = self._coef_memo.get(quot)
        if hit is None:
            hit = self._coef_memo[quot] = Field.adopt(
                self.model.grid, np.array(self.model.g_field(quot), dtype=float))
        return hit

    @staticmethod
    def term_keys(tau, coproduct: FreeVector) -> list:
        """(c, tau/sigma, sigma) for each term c sigma (x) tau/sigma of the
        coproduct of tau with sigma != tau not polynomial, in order."""
        return [(c, right, left) for (left, right), c in coproduct.sorted_items()
                if left != tau and not left.is_poly]

    def coproduct_terms(self, tau, coproduct: FreeVector, bracket):
        """(c, g(tau/sigma), <sigma>) for each term of `term_keys`; <sigma> =
        bracket(sigma), and g(tau/sigma) comes from `coefficient`."""
        return self._planned((c, (self.coefficient(quot), quot), (bracket(sigma), sigma))
                             for c, quot, sigma in self.term_keys(tau, coproduct))

    def _planned(self, operands):
        """(c, f, u) for each (c, (f, f_key), (u, u_key)) of operands, drawn
        one at a time.  With a plan, an operand of a later product too is
        held before the term is yielded, and both reads are counted once its
        product is formed, when the next term is drawn."""
        for c, (f, f_key), (u, u_key) in operands:
            reads = ((f, f_key, "f"), (u, u_key, "g"))
            for field, key, side in reads:
                if self._reads is not None and self._reads[side, key] > 1:
                    hold_rows(field)
            yield c, f, u
            for field, key, side in reads:
                self._read(key, field, side)

    def pi_step(self, start, coeffs: dict) -> np.ndarray:
        """start - sum_sigma P^m_{coeffs[sigma]} <sigma>^M over the keys of
        coeffs in order: md_to's <f>^M = Rf - sum_sigma P_{f_sigma}
        <sigma>^M.  The Pi-brackets are planned, with the step's one read of
        each among their products, and formed before the step, so a bracket
        that is also an operand of their recursions keeps its rows from its
        first product there to the step's."""
        self._plan((), coeffs)
        for sym in coeffs:
            self._reads["g", sym] += 1
        brackets = {sym: self.pi_bracket(sym) for sym in coeffs}
        return self.step(start, self._planned((1, (f, None), (brackets[sym], sym))
                                              for sym, f in coeffs.items()))

    def _memoize(self, memo: dict, key, bracket: Field) -> Field:
        """memo[key] = bracket, held for the extractor's life if it has no plan."""
        if self._reads is None:
            hold_rows(bracket)
        memo[key] = bracket
        return bracket

    def g_bracket(self, mono: PlusMonomial) -> Field:
        if mono.is_poly:
            raise ValueError(f"g-brackets are indexed by B+ \\ B_X^+, got {mono}")
        hit = self._g_memo.get(mono)
        if hit is None:
            # a step that adds no term leaves g(mono): the Field
            # coefficient(mono) itself
            coproduct = self.model.structure.delta_plus(mono)
            start = self.coefficient(mono)
            hit = start if not self.term_keys(mono, coproduct) else Field.adopt(
                self.model.grid, self.step(start, self.coproduct_terms(mono, coproduct,
                                                                       self.g_bracket)))
            self._read(mono, start, "f", product=False)
            self._memoize(self._g_memo, mono, hit)
        return hit

    def pi_bracket(self, sym: BaseSymbol) -> Field:
        if sym.is_poly:
            raise ValueError(f"Pi-brackets are indexed by B \\ B_X_, got {sym}")
        hit = self._pi_memo.get(sym)
        if hit is None:
            terms = self.coproduct_terms(sym, self.model.structure.delta(sym), self.pi_bracket)
            hit = self._memoize(self._pi_memo, sym, Field.adopt(
                self.model.grid, self.step(self.model.pi_symbol(sym), terms)))
        return hit


def extract_brackets(model: Model, m: int | None = None,
                     with_reports: bool = True, tol_slope: float = SLOPE_TOL) -> BracketData:
    """All bracket data of a model below the cutoff, from an extractor that
    plans its products first (`BracketExtractor.brackets`).  With reports,
    `report` checks each bracket's Hölder slope against its homogeneity
    within tol_slope, the NormReport kept on the check."""
    S = model.structure
    if m is None:
        m = default_m(S)
    g_keys = [mono for mono in S.plus_monomials(plus_bound(S))
              if not mono.is_poly and all(n in model.g.values for n, _ in mono.gens)]
    pi_keys = [sym for sym in S.base_symbols() if not sym.is_poly and sym.core in model.pi]
    # the extractor, with its coefficient Fields, is let go before the reports run
    g_side, pi_side = BracketExtractor(model, m).brackets(g_keys, pi_keys)
    out = BracketData(m, {mono: f.values for mono, f in g_side.items()},
                      {sym: f.values for sym, f in pi_side.items()})
    if with_reports:
        out.report = Report(f"brackets: {S.name}")
        for side, brackets, homog in (("g", g_side, S.homog_plus), ("pi", pi_side, S.homog_base)):
            for key, bracket in brackets.items():
                h = float(homog(key))
                out.report.add_norm(f"{side}_bracket {key}", holder_norm(bracket, h), h, tol_slope)
    return out


# -- reconstruction of Pi from bracket data ----------------------------------------

def random_brackets(structure: ConcreteRegularityStructure, grid: Grid, seed: int):
    """(g-brackets, Pi-brackets) on every free coordinate, each synthesized at
    its homogeneity: g-side coordinate i with seed + i, Pi-side i with seed + 1000 + i."""
    S = structure
    return ({r: synthesize(float(S.plus_gens[r]), seed + i, grid)
             for i, r in enumerate(S.check_assumptions().c_generators)},
            {n: synthesize(float(S.base_gens[n]), seed + 1000 + i, grid)
             for i, n in enumerate(S.pi_coordinates())})


def build_pi(structure: ConcreteRegularityStructure, grid: Grid, g: Character,
             brackets: dict[str, Field | np.ndarray], m: int | None = None) -> Model:
    """The unique model over a valid g with prescribed brackets on the
    negative generators (pi_coordinates): increasing-homogeneity recursion

        Pi tau = sum_{sigma < tau, sigma not in B_X_} P^m_{g(tau/sigma)} <sigma>^{m,M} + <tau>

    for |tau| < 0, and the reconstruction of h_tau for |tau| > 0.
    """
    S = structure
    if m is None:
        m = default_m(S)
    check_coordinates("Pi", brackets, S.pi_coordinates())
    model = Model(S, grid, g, {})
    ex = BracketExtractor(model, m)
    for name in sorted(S.base_gens, key=lambda n: (S.base_gens[n], term_key(n))):
        if name == "1":
            continue
        h = S.base_gens[name]
        sym = BaseSymbol(name, mi_zero(S.dim))
        if name in brackets:
            terms = ex.coproduct_terms(sym, S.delta(sym), ex.pi_bracket)
            model.pi[name] = ex.step(brackets[name], terms, sign=+1)
        else:
            # positive homogeneity: Pi tau reconstructs
            # h_tau(x) = sum_{sigma < tau} g_x(tau/sigma) sigma
            model.pi[name] = reconstruct(model, h_coefficients(model, sym), h).values
    return model


def h_coefficients(model: Model, sym: BaseSymbol) -> dict[BaseSymbol, np.ndarray]:
    """Coefficients of the modelled distribution h_tau = sum_{sigma<tau}
    g_x(tau/sigma) sigma."""
    S = model.structure
    out: dict[BaseSymbol, np.ndarray] = {}
    for (left, right), c in S.delta(sym).sorted_items():
        if left == sym:
            continue
        coef = float(c) * model.g_field(right)
        if left in out:
            out[left] = out[left] + coef
        else:
            out[left] = coef
    return out


def reconstruction_family(model: Model, coeffs: dict[BaseSymbol, np.ndarray]) -> SeparableFamily:
    """The family Lambda_x = Pi^g_x f(x) for f = sum f_tau tau, in separable
    form: Lambda_x(y) = sum_sigma c_sigma(x) (Pi sigma)(y) with
    c_sigma = sum_{tau >= sigma} f_tau g^{-1}(tau/sigma)."""
    S = model.structure
    terms: dict[BaseSymbol, np.ndarray] = {}
    for tau, f_tau in coeffs.items():
        for (left, right), c in S.delta(tau).sorted_items():
            coef = float(c) * f_tau * model.g_inv_field(right)
            if left in terms:
                terms[left] = terms[left] + coef
            else:
                terms[left] = coef
    fam = [
        (coef, model.pi_symbol(sigma))
        for sigma, coef in sorted(terms.items(), key=lambda kv: term_key(kv[0]))
    ]
    return SeparableFamily(model.grid, fam)


def reconstruct(model: Model, coeffs: dict[BaseSymbol, np.ndarray], gamma) -> Field:
    """R f for a modelled distribution with the given coefficients."""
    return reconstruct_family(model, reconstruction_family(model, coeffs), gamma)


def reconstruct_family(model: Model, fam: SeparableFamily, gamma) -> Field:
    """R f from its family Lambda_x = Pi^g_x f(x) (reconstruction_family).

    gamma > 0: the two-parameter paraproduct of Lambda plus the unique
    C^gamma correction, which on the grid is the diagonal trace.
    gamma <= 0: **P**(Lambda) alone (reconstruction is not unique there),
    sum P_coef u over the family's terms (coef, u) as one block sum.
    """
    if Fraction(gamma) > 0:
        return fam.diagonal()
    grid = model.grid
    return paraproduct_sum(make_partition(grid), 0,
                           ((1, Field(grid, coef), Field(grid, u)) for coef, u in fam.terms))


# -- reconstruction of g from bracket data ------------------------------------------

def build_g(structure: ConcreteRegularityStructure, grid: Grid,
            brackets: dict[str, Field | np.ndarray]) -> Character:
    """The unique g-map with prescribed brackets on the assumption-(C)
    generator set (c_generators): ordered induction with

        g(tau_n) = sum_{sigma <+ tau_n, sigma not poly} P_{g(tau_n/sigma)} <sigma>^{M^g} + <tau_n>

    and g(D^k tau_n) filled in by spectral differentiation at the diagonal.
    """
    S = structure
    rep = S.check_assumptions()
    if not (rep.a_ok and rep.c_ok):
        raise ValueError(
            "build_g needs assumptions (A) and (C); failures: "
            + "; ".join(rep.a_failures + rep.c_failures)
        )
    roots = rep.c_generators
    check_coordinates("g", brackets, roots)
    g = field_character(S, grid, {})
    model = Model(S, grid, g, {})
    ex = BracketExtractor(model, 0)
    for root in roots:
        gen = PlusMonomial.of_gen(root, S.dim)
        terms = ex.coproduct_terms(gen, S.delta_plus(gen), ex.g_bracket)
        g.values[root] = ex.step(brackets[root], terms, sign=+1)
        # orbit members D^k root, 0 < |k| < |root| (assumption (C)), via the
        # diagonal-derivative formula
        members = sorted(
            (n for n, (r, k) in rep.c_orbit.items() if r == root and any(k)),
            key=lambda n: (mi_abs(rep.c_orbit[n][1]), n),
        )
        for name in members:
            k = rep.c_orbit[name][1]
            vals = diag_derivative(model, gen, k).copy()
            for (left, right), c in S.dplus_table[root].sorted_items():
                if left == gen or left.is_poly or left.is_unit:
                    continue
                if S.homog_plus(left) > mi_abs(k):
                    continue
                vals -= float(c) * model.g_field(right) * diag_two_point(model, left, k)
            g.values[name] = vals
    return g


def g_as_model(structure: ConcreteRegularityStructure, grid: Grid, g: Character,
               bound: Fraction | None = None) -> Model:
    """The model M^g = (g, g) on the structure T+ = ((T+,Delta+),(T+,Delta+)),
    re-keyed so that the T-side basis is the plus-monomial basis."""
    S = plus_as_base(structure, bound)
    g2 = Character(S, g.point, dict(g.values))
    pi = {}
    for name, mono in S._monomial_of.items():
        vals = np.broadcast_to(np.asarray(g(mono), dtype=float), grid.shape)
        pi[name] = np.asarray(vals, dtype=float)
    return Model(S, grid, g2, pi)


def plus_as_base(structure: ConcreteRegularityStructure,
                 bound: Fraction | None = None) -> ConcreteRegularityStructure:
    """View T+ as the T-side of a concrete regularity structure: base
    generators are the gen-only plus-monomials below the bound."""
    S = structure
    if bound is None:
        bound = S.cutoff
    monomials = [m for m in S.plus_monomials(bound) if not any(m.poly)]
    names = {m: ("1" if m.is_unit else str(m)) for m in monomials}
    base_gens = {names[m]: S.homog_plus(m) for m in monomials}
    delta_table = {}
    for m in monomials:
        if m.is_unit:
            continue
        terms = []
        for (left, right), c in S.delta_plus(m).items():
            core = PlusMonomial(left.gens, mi_zero(S.dim))
            if core not in names:
                raise KeyError(f"monomial {core} above the plus_as_base bound")
            terms.append(((BaseSymbol(names[core], left.poly), right), c))
        delta_table[names[m]] = FreeVector(terms)
    out = ConcreteRegularityStructure(
        dim=S.dim,
        cutoff=bound,
        plus_gens=dict(S.plus_gens),
        base_gens=base_gens,
        dplus_table=dict(S.dplus_table),
        delta_table=delta_table,
        name=S.name + "+as-base",
    )
    out._monomial_of = {names[m]: m for m in monomials}
    return out
