"""Exact symbolic layer: monomials, free vectors, coproducts, D^k, assumptions."""
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpara.algebra import (
    BaseSymbol,
    FreeVector,
    PlusMonomial,
    mi_below_abs,
    mi_binom,
    mi_factorial,
    mi_range,
    polynomial_structure,
)
from regpara import cli
from regpara.grid import Grid
from regpara.library import RULES, structure
from regpara.models import build_g, plus_bound
from regpara.rules import ClosureError, export_structure
from regpara.structure_io import read_structure

from conftest import perturbed_structure


@pytest.fixture(scope="module")
def poly1():
    return polynomial_structure(1, Fraction(3))


def X(k):
    return PlusMonomial.of_poly((k,))


class TestFreeVector:
    def test_zero_coefficients_never_stored(self):
        v = FreeVector([(X(1), 1), (X(1), -1), (X(2), 2)])
        assert len(v) == 1
        assert v.coeff(X(2)) == 2
        assert v.coeff(X(1)) == 0

    def test_equality_is_coefficientwise(self):
        a = FreeVector([(X(1), Fraction(1, 2)), (X(2), 1)])
        b = FreeVector([(X(2), 1), (X(1), Fraction(1, 2))])
        assert a == b
        assert a - b == FreeVector.zero()

    def test_serialization_is_sorted_and_deterministic(self):
        v = FreeVector([(X(2), 1), (X(0), Fraction(-1, 3))])
        assert v.serialize() == "-1/3 1 + 1 X(2)"

    @given(st.lists(st.tuples(st.integers(0, 4), st.fractions()), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_addition_commutes(self, terms):
        a = FreeVector([(X(k), c) for k, c in terms[: len(terms) // 2]])
        b = FreeVector([(X(k), c) for k, c in terms[len(terms) // 2:]])
        assert a + b == b + a


class TestPolynomialCoproduct:
    def test_primitive_monomial(self, poly1):
        got = poly1.delta_plus(X(1))
        want = FreeVector([((X(1), X(0)), 1), ((X(0), X(1)), 1)])
        assert got == want

    def test_unit(self, poly1):
        u = PlusMonomial.unit(1)
        assert poly1.delta_plus(u) == FreeVector.single((u, u))

    def test_square_collects_binomials(self, poly1):
        # oracle: square the primitive coproduct of X and collect terms
        prim = poly1.delta_plus(X(1))
        sq = prim.tensor_mul(prim, PlusMonomial.mul, PlusMonomial.mul)
        assert poly1.delta_plus(X(2)) == sq
        assert sq.coeff((X(1), X(1))) == 2

    def test_base_unit_comodule(self, poly1):
        u = BaseSymbol.unit(1)
        assert poly1.delta(u) == FreeVector.single((u, PlusMonomial.unit(1)))

    def test_underlined_primitive(self, poly1):
        got = poly1.delta(BaseSymbol("1", (1,)))
        want = FreeVector(
            [((BaseSymbol("1", (1,)), X(0)), 1), ((BaseSymbol.unit(1), X(1)), 1)]
        )
        assert got == want


class TestQuotients:
    def test_diagonal_gives_unit(self, poly1):
        assert poly1.quotient(X(2), X(2)) == FreeVector.single(X(0))

    def test_square_over_x(self, poly1):
        assert poly1.quotient(X(2), X(1)) == FreeVector.single(X(1), 2)

    def test_unrelated_gives_zero(self, toy_structure):
        gens = sorted(toy_structure.plus_gens)
        a = PlusMonomial.of_gen(gens[0], 1)
        assert not toy_structure.quotient(X(1), a)


class TestDOperator:
    def test_identity_at_zero(self, poly1, toy_structure):
        for S in (poly1, toy_structure):
            for mono in S.plus_monomials():
                assert S.d_op((0,) * S.dim, mono) == FreeVector.single(mono)

    def test_factorial_convention_against_coproduct(self, poly1):
        # D^l X^k must equal l! times the X^l-slot of the coproduct; for
        # polynomials that is (k!/(k-l)!) X^{k-l}, not binom(l,k) X^{k-l}
        for k in range(3):
            for l in range(k + 1):
                got = poly1.d_op((l,), X(k))
                coeff = mi_factorial((l,)) * mi_binom((k,), (l,))
                assert got == FreeVector.single(X(k - l), coeff)
                assert coeff == mi_factorial((k,)) // mi_factorial((k - l,))

    def test_composition(self, toy_structure):
        S = toy_structure
        for mono in S.plus_monomials():
            d1 = S.d_op((1,), mono)
            assert S.d_op((1,), d1) == S.d_op((2,), mono)

    def test_leibniz_rule(self, bhz_structure):
        S = bhz_structure
        gens = sorted(S.plus_gens)
        a = PlusMonomial.of_gen(gens[0], 1)
        b = PlusMonomial.of_gen(gens[1], 1)
        prod = a.mul(b)
        for k in ((1,), (2,)):
            want = FreeVector.zero()
            for kp in mi_range(1, k[0]):
                rest = (k[0] - kp[0],)
                da = S.d_op(kp, a)
                db = S.d_op(rest, b)
                for ma, ca in da.items():
                    for mb, cb in db.items():
                        want = want + FreeVector.single(
                            ma.mul(mb), ca * cb * mi_binom(k, kp)
                        )
            assert S.d_op(k, prod) == want

    def test_orbit_shift_on_integrated_trees(self, bhz_structure):
        # e-decorations shift under D^l: the orbit data of the assumption
        # check certifies D^l I_k = I_{k+l} with coefficient one
        rep = bhz_structure.check_assumptions()
        shifted = {n: rk for n, rk in rep.c_orbit.items() if any(rk[1])}
        assert shifted, "expected at least one derived generator"
        for name, (root, k) in shifted.items():
            got = bhz_structure.d_op(k, PlusMonomial.of_gen(root, 1))
            assert got == FreeVector.single(PlusMonomial.of_gen(name, 1))


class TestHopfExactness:
    @pytest.mark.parametrize("name", ["polynomial", "toy", "bhz", "twonoise"])
    def test_coassociativity_and_comodule(self, name):
        S = structure(name)
        for mono in S.plus_monomials():
            assert not S.coassociativity_defect(mono)
        for sym in S.base_symbols():
            assert not S.comodule_defect(sym)

    @pytest.mark.parametrize("name", ["toy", "bhz"])
    def test_grading_and_triangularity(self, name):
        S = structure(name)
        for mono in S.plus_monomials():
            h = S.homog_plus(mono)
            for (left, right), _c in S.delta_plus(mono).items():
                assert S.homog_plus(left) + S.homog_plus(right) == h
                if left != mono and not left.is_unit:
                    assert 0 < S.homog_plus(left) < h
        for sym in S.base_symbols():
            h = S.homog_base(sym)
            for (left, right), _c in S.delta(sym).items():
                assert S.homog_base(left) + S.homog_plus(right) == h
                assert left == sym or S.homog_base(left) < h


class TestCoactionDefects:
    """The defects vanish on the shipped tables (TestHopfExactness); here a
    table with one wrong coefficient must show up in them."""

    def test_perturbed_delta_plus_breaks_coassociativity(self):
        S = structure("toy")
        mono = max((PlusMonomial.of_gen(n, 1) for n in S.plus_gens), key=S.homog_plus)
        unit = PlusMonomial.unit(1)
        assert not S.coassociativity_defect(mono)
        broken = perturbed_structure(S, "dplus_table", mono.gens[0][0], (mono, unit), 2)
        assert broken.coassociativity_defect(mono)

    def test_perturbed_delta_breaks_the_comodule_identity(self):
        S = structure("toy")
        name = max((n for n in S.base_gens if n != "1"), key=lambda n: S.base_gens[n])
        sym = BaseSymbol(name, (0,))
        assert not S.comodule_defect(sym)
        broken = perturbed_structure(S, "delta_table", name, (sym, PlusMonomial.unit(1)), 2)
        assert broken.comodule_defect(sym)


def _nested_delta_plus_terms(S, v, left_poly):
    """The nested loop delta_plus_terms replaces, spelled with its own sort
    keys: v's monomials by name, each coproduct by its left (x) right name."""
    if isinstance(v, PlusMonomial):
        v = FreeVector.single(v)
    out = []
    for mono, c in sorted(v.terms.items(), key=lambda kv: str(kv[0])):
        terms = S.delta_plus(mono).terms.items()
        for (left, right), c2 in sorted(terms, key=lambda kv: f"{kv[0][0]} (x) {kv[0][1]}"):
            if left_poly is None or left.is_poly == left_poly:
                out.append((c * c2, left, right))
    return out


@pytest.mark.parametrize("name, noncanonical", [
    ("toy", False), ("bhz", True), ("twonoise", False), ("toy2d", False)])
def test_delta_plus_terms_is_the_nested_sorted_loop(name, noncanonical):
    S = structure(name, noncanonical=noncanonical)
    monos = S.plus_monomials(plus_bound(S))
    symbols = S.base_symbols()
    vectors = [S.quotient(mu, tau) for mu in symbols for tau in symbols]
    vectors += [S.d_op(k, mono) for k in mi_range(S.dim, 2) for mono in monos]
    # and one combination of every monomial, coefficients not 1
    vectors.append(FreeVector([(m, Fraction(i + 1, 3)) for i, m in enumerate(reversed(monos))]))
    vectors = [v for v in vectors if v]
    for v in monos + vectors:
        split = {}
        for left_poly in (None, True, False):
            got = list(S.delta_plus_terms(v, left_poly))
            assert got == _nested_delta_plus_terms(S, v, left_poly)
            assert all(type(c) is Fraction for c, _, _ in got)
            split[left_poly] = got
        # each filter keeps its share of the unfiltered terms, in their order
        for left_poly in (True, False):
            assert split[left_poly] == [t for t in split[None] if t[1].is_poly == left_poly]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bound", [Fraction(-1, 2), 0, Fraction(3, 8), 1, Fraction(3, 2), 2,
                                   Fraction(9, 4)])
def test_mi_below_abs_is_the_strict_ball(d, bound):
    got = mi_below_abs(d, bound)
    brute = {k for k in itertools.product(range(4), repeat=d) if sum(k) < bound}
    assert set(got) == brute and len(got) == len(brute)
    assert got == [k for k in mi_range(d, 3) if sum(k) < bound]   # mi_range's order


# Plus-generators of structures in d = 1 around one base generator u: one whose
# D^k-orbit (C) is right, and three that break (C), each with the C_failure
# that must name it.
_ONE_NOISE = "dim 1\ncutoff 3\ngen u base -1/2\ndelta u = u (x) 1\n"
_ORBIT_JKL = ("gen J plus 5/2\ngen K plus 3/2\ngen L plus 1/2\n"
              "dplus K = K (x) 1 + 1 (x) K + X(1) (x) L\n"
              "dplus L = L (x) 1 + 1 (x) L\n")
C_FAILURES = {
    # Delta+ J lacks its X(2) term, so D^(2) J = 0 cuts the orbit of J short
    "truncated-orbit": (_ORBIT_JKL + "dplus J = J (x) 1 + 1 (x) J + X(1) (x) K\n",
                        "D^(2) J = 0 is not a basis generator"),
    # K = D^(1) A = D^(1) B lies in two orbits
    "two-roots": ("gen A plus 3/2\ngen B plus 3/2\ngen K plus 1/2\n"
                  "dplus A = A (x) 1 + 1 (x) A + X(1) (x) K\n"
                  "dplus B = B (x) 1 + 1 (x) B + X(1) (x) K\n"
                  "dplus K = K (x) 1 + 1 (x) K\n",
                  "D^(1) A = K is already D^(1) B"),
    # (C-2): R = D^(1) S is no product of orbits below Q, as |S| = 3/2 > |Q|
    "c2": ("gen S plus 3/2\ngen R plus 1/2\ngen Q plus 1\n"
           "dplus S = S (x) 1 + 1 (x) S + X(1) (x) R\n"
           "dplus R = R (x) 1 + 1 (x) R\n"
           "dplus Q = Q (x) 1 + 1 (x) Q + R (x) R\n",
           "Delta+ Q: factor R of R (x) R is not built from strictly lower generators"),
}


def test_orbit_sweep_fills_every_member(tmp_path):
    path = tmp_path / "orbit.txt"
    path.write_text(_ONE_NOISE + _ORBIT_JKL
                    + "dplus J = J (x) 1 + 1 (x) J + X(1) (x) K + 1/2 * X(2) (x) L\n")
    rep = read_structure(path).check_assumptions()
    assert rep.all_ok and rep.c_generators == ["J"]
    # insertion order: ascending (homogeneity, name)
    assert list(rep.c_orbit.items()) == [("L", ("J", (2,))), ("K", ("J", (1,))),
                                         ("J", ("J", (0,)))]


@pytest.mark.parametrize("case", sorted(C_FAILURES))
def test_c_failure_names_its_witness(case, tmp_path, capsys):
    """The failure names the generator and k; build_g refuses the structure
    with it, and structure-validate prints it and exits 1."""
    text, message = C_FAILURES[case]
    path = tmp_path / f"{case}.txt"
    path.write_text(_ONE_NOISE + text)
    S = read_structure(path)
    rep = S.check_assumptions()
    assert rep.a_ok and rep.b_ok and not rep.c_ok
    assert rep.c_failures.count(message) == 1
    with pytest.raises(ValueError, match=re.escape(message)):
        build_g(S, Grid(1, 16, np.pi), {})
    assert cli.main(["structure-validate", "--structure", str(path)]) == 1
    assert capsys.readouterr().out.split("\n").count(f"C_failure {message}") == 1


# Hand-written tables that the constructor refuses (a ValueError) or whose
# assumption (A) or (B) fails once, each with its one message.
_PLUS_J = "gen J plus 3/2\n"
_PLUS_K = "gen K plus 1/2\ndplus K = K (x) 1 + 1 (x) K\n"
AB_FAILURES = {
    "no-unit": ("dim 1\ncutoff 3\ngen 1 base 1\ngen u base -1/2\ndelta u = u (x) 1\n",
                "structure must declare the unit base generator '1' at homogeneity 0"),
    "plus-at-zero": (_ONE_NOISE + "gen J plus 0\ndplus J = J (x) 1 + 1 (x) J\n",
                     "plus-generator J must have positive homogeneity, got 0"),
    "base-at-zero": (_ONE_NOISE + "gen v base 0\ndelta v = v (x) 1\n",
                     "only '1' may sit at homogeneity 0, got v"),
    "no-dplus": (_ONE_NOISE + _PLUS_J, "missing Delta+ table entry for plus-generator J"),
    "no-delta": (_ONE_NOISE + "gen v base -1/4\n",
                 "missing Delta table entry for base generator v"),
    "dplus-diagonal": (_ONE_NOISE + _PLUS_J + "dplus J = 1 (x) J\n",
                       "Delta+ J misses the diagonal term J (x) 1"),
    "dplus-counit": (_ONE_NOISE + _PLUS_J + "dplus J = J (x) 1\n",
                     "Delta+ J misses the counit term 1 (x) J"),
    "dplus-grading": (_ONE_NOISE + _PLUS_J + "dplus J = J (x) 1 + 1 (x) J + X(1) (x) 1\n",
                      "Delta+ J: term X(1) (x) 1 breaks the grading"),
    "dplus-polynomial": (_ONE_NOISE + "gen J plus 2\n"
                         "dplus J = J (x) 1 + 1 (x) J + X(1) (x) X(1)\n",
                         "Delta+ J: polynomial term X(1) (x) X(1)"),
    "dplus-triangular": (_ONE_NOISE + _PLUS_J + _PLUS_K
                         + "dplus J = J (x) 1 + 1 (x) J + K^3 (x) 1\n",
                         "Delta+ J: middle term K^3 (x) 1 not triangular"),
    "delta-diagonal": ("dim 1\ncutoff 3\ngen u base -1/2\ndelta u = 2 * u (x) 1\n",
                       "Delta u misses the diagonal term u (x) 1"),
    "delta-grading": (_ONE_NOISE + "gen v base -1/4\ndelta v = v (x) 1 + v (x) X(1)\n",
                      "Delta v: term v (x) X(1) breaks the grading"),
    "delta-triangular": (_ONE_NOISE + "gen v base -1/2\ndelta v = v (x) 1 + u (x) 1\n",
                         "Delta v: term u (x) 1 not triangular"),
    "delta-polynomial": (_ONE_NOISE + "gen w base 2\ndelta w = w (x) 1 + X_(1) (x) X(1)\n",
                         "Delta w: polynomial term X_(1) (x) X(1)"),
    # below cutoff 1 no X_ multiple of v repeats the mix
    "b-mix": ("dim 1\ncutoff 1\ngen u base -1/2\ndelta u = u (x) 1\n"
              "gen K plus 1\ndplus K = K (x) 1 + 1 (x) K\n"
              "gen v base 1/2\ndelta v = v (x) 1 + u (x) K + u (x) X(1)\n",
              "v/u mixes T_X^+ and span(B+ - B_X^+)"),
}


@pytest.mark.parametrize("case", sorted(AB_FAILURES))
def test_structure_error_or_ab_failure_names_its_witness(case, tmp_path):
    """Each malformed table set is refused at construction with its message,
    or reads and fails (A) or (B) with that message alone."""
    text, message = AB_FAILURES[case]
    path = tmp_path / f"{case}.txt"
    path.write_text(text)
    try:
        S = read_structure(path)
    except ValueError as exc:
        assert str(exc) == message
        return
    rep = S.check_assumptions()
    assert rep.a_failures + rep.b_failures == [message]
    assert (rep.a_ok, rep.b_ok) == (not case.startswith(("dplus", "delta")), case != "b-mix")


# A structure whose only wrong table is that of its lowest plus-generator L:
# its diagonal term has coefficient 2.
_LOW_DEFECT = ("gen L plus 1/2\ngen K plus 3/2\n"
               "dplus L = 2 * L (x) 1 + 1 (x) L\n"
               "dplus K = K (x) 1 + 1 (x) K\n")


def _monomial_sweep(S):
    """The defective monomials of B+ and symbols of B below the cutoff, by
    the whole walk that hopf_defects replaces."""
    return ([m for m in S.plus_monomials() if S.coassociativity_defect(m)],
            [s for s in S.base_symbols() if S.comodule_defect(s)])


# The sweep walks every monomial of B+ below the cutoff: toy at 5/2 has 13 M.
SWEEP_MONOMIALS = 400


def _plus_monomial_count(S, cap: int) -> int:
    """len(S.plus_monomials()), counted without forming them and given up
    (returning more than cap) once it passes cap."""
    heights = sorted(S.plus_gens.values())

    def count(i: int, room: Fraction) -> int:
        if i == len(heights):
            return len(mi_below_abs(S.dim, room))
        n = 0
        while room > 0 and n <= cap:
            n += count(i + 1, room)
            room -= heights[i]
        return n
    return count(0, S.cutoff)


def _hopf_oracle_structures(tmp_path):
    """(label, structure) of every shipped structure on both bases, every
    export of a golden enumeration with at most SWEEP_MONOMIALS monomials of
    B+ below its cutoff, the C_FAILURES structures, _LOW_DEFECT and toy with
    one wrong Delta table."""
    from test_golden import ENUMERATE_CASES, _basis

    yield "polynomial", structure("polynomial")
    for name in sorted(RULES):
        for nc in (False, True):
            yield f"{name} nc={nc}", structure(name, noncanonical=nc)
    for name, cutoff in ENUMERATE_CASES:
        for nc in (False, True):
            try:
                S = export_structure(_basis(name, cutoff), nc)
            except ClosureError:
                continue
            if _plus_monomial_count(S, SWEEP_MONOMIALS) <= SWEEP_MONOMIALS:
                yield f"{name} {cutoff} nc={nc}", S
    for case, text in [*((c, t) for c, (t, _m) in sorted(C_FAILURES.items())),
                       ("low-defect", _LOW_DEFECT)]:
        path = tmp_path / f"{case}.txt"
        path.write_text(_ONE_NOISE + text)
        yield case, read_structure(path)
    # and a wrong Delta table: the comodule side
    S = structure("toy")
    name = max((n for n in S.base_gens if n != "1"), key=lambda n: S.base_gens[n])
    yield "toy delta-perturbed", perturbed_structure(
        S, "delta_table", name, (BaseSymbol(name, (0,)), PlusMonomial.unit(1)), 2)


def test_hopf_defects_agree_with_the_monomial_sweep(tmp_path):
    """hopf_defects() passes a side iff the whole sweep finds no defect on
    it, and each generator it names below the cutoff is in the sweep."""
    labels = []
    for label, S in _hopf_oracle_structures(tmp_path):
        labels.append(label)
        found = S.hopf_defects()
        plus = [g for g in found if isinstance(g, PlusMonomial)]
        base = [g for g in found if isinstance(g, BaseSymbol)]
        assert plus + base == found, label
        sweep_plus, sweep_base = _monomial_sweep(S)
        assert bool(plus) == bool(sweep_plus) and set(plus) <= set(sweep_plus), label
        assert bool(base) == bool(sweep_base), label
        assert {s for s in base if S.homog_base(s) < S.cutoff} <= set(sweep_base), label
    # 12 of the 17 golden enumerations export with at most SWEEP_MONOMIALS
    # monomials of B+ below the cutoff, on both bases
    assert len(labels) == len(set(labels)) == 1 + 8 + 24 + 4 + 1


def test_hopf_defects_name_the_low_generator(tmp_path, capsys):
    """One wrong table on a low generator spoils every monomial it enters;
    hopf_defects names the generator alone, and structure-validate counts it."""
    path = tmp_path / "low-defect.txt"
    path.write_text(_ONE_NOISE + _LOW_DEFECT)
    S = read_structure(path)
    sweep_plus, sweep_base = _monomial_sweep(S)
    assert len(sweep_plus) > 5 and not sweep_base
    assert all("L" in dict(m.gens) for m in sweep_plus)
    assert S.hopf_defects() == [PlusMonomial.of_gen("L", 1)]
    assert cli.main(["structure-validate", "--structure", str(path)]) == 1
    assert "\nhopf_defects=1\n" in capsys.readouterr().out


def test_truncated_orbit_has_a_hopf_defect(tmp_path):
    path = tmp_path / "truncated-orbit.txt"
    path.write_text(_ONE_NOISE + C_FAILURES["truncated-orbit"][0])
    assert read_structure(path).hopf_defects() == [PlusMonomial.of_gen("J", 1)]


class TestAssumptions:
    def test_polynomial_structure_passes_all(self, poly1):
        rep = poly1.check_assumptions()
        assert rep.a_ok and rep.b_ok and rep.c_ok and rep.d_ok
        assert rep.c_generators == []

    def test_toy_satisfies_d(self, toy_structure):
        assert toy_structure.check_assumptions().d_ok

    def test_canonical_bhz_fails_d_with_named_witness(self, bhz_structure):
        rep = bhz_structure.check_assumptions()
        assert not rep.d_ok
        assert rep.d_witness == (
            "I[t;(0)](I[th;(0)](1)) (x) X(1) in Delta(I[t;(0)](X(1)*I[th;(0)](1)))"
        )

    def test_noncanonical_bhz_passes_d(self):
        S = structure("bhz", noncanonical=True)
        rep = S.check_assumptions()
        assert rep.d_ok

    @pytest.mark.parametrize("noncanonical", [False, True], ids=["canonical", "noncanonical"])
    @pytest.mark.parametrize("name", sorted(RULES))
    def test_c_generators_in_homogeneity_then_name_order(self, name, noncanonical):
        """build_g and the CLI take this order as it is."""
        S = structure(name, noncanonical=noncanonical)
        gens = S.check_assumptions().c_generators
        assert gens and gens == sorted(gens, key=lambda n: (S.plus_gens[n], n))

    def test_orbit_partition_covers_generators(self, bhz_structure):
        rep = bhz_structure.check_assumptions()
        assert rep.c_ok
        assert set(rep.c_orbit) == set(bhz_structure.plus_gens)
        roots = set(rep.c_generators)
        for name, (root, _k) in rep.c_orbit.items():
            assert root in roots
