"""Character group laws (exact rationals) and the projection functional."""
import random
from fractions import Fraction

import numpy as np
import pytest

from regpara.algebra import PlusMonomial
from regpara.characters import (
    Character,
    f_character_complement,
    f_character_values,
    sample_character,
    two_point,
)


@pytest.fixture(scope="module")
def rational_chars(bhz_structure):
    rng = random.Random(3)

    def make():
        pt = (Fraction(rng.randint(-3, 3), 4),)
        return Character(
            bhz_structure,
            pt,
            {n: Fraction(rng.randint(-8, 8), 8) for n in bhz_structure.plus_gens},
        )

    return make(), make(), make()


def monomials(S):
    return [m for m in S.plus_monomials(S.cutoff + Fraction(9, 8))]


class TestGroupLaws:
    def test_counit_is_neutral(self, bhz_structure, rational_chars):
        g1, _, _ = rational_chars
        eps = Character.counit(bhz_structure)
        conv = g1.convolve(eps)
        for m in monomials(bhz_structure):
            assert conv.of_monomial(m) == g1.of_monomial(m)

    def test_inverse_both_sides_exact(self, bhz_structure, rational_chars):
        g1, _, _ = rational_chars
        eps = Character.counit(bhz_structure)
        gi = g1.invert()
        for conv in (g1.convolve(gi), gi.convolve(g1)):
            for m in monomials(bhz_structure):
                assert conv.of_monomial(m) == eps.of_monomial(m)

    def test_associativity_exact(self, bhz_structure, rational_chars):
        g1, g2, g3 = rational_chars
        a = g1.convolve(g2).convolve(g3)
        b = g1.convolve(g2.convolve(g3))
        for m in monomials(bhz_structure):
            assert a.of_monomial(m) == b.of_monomial(m)

    def test_polynomial_primitivity(self, bhz_structure, rational_chars):
        g1, g2, _ = rational_chars
        x = PlusMonomial.of_poly((1,))
        assert g1.convolve(g2).of_monomial(x) == g1.of_monomial(x) + g2.of_monomial(x)

    def test_inverse_of_primitive_is_negation(self, bhz_structure, rational_chars):
        g1, _, _ = rational_chars
        S = bhz_structure
        gi = g1.invert()
        gen = PlusMonomial.of_gen("I[t;(0)](I[th;(0)](1))", 1)
        # the coproduct of this generator has no middle terms, so the
        # inverse recursion reduces to a sign flip
        mid = [
            (l, r)
            for (l, r), _c in S.dplus_table["I[t;(0)](I[th;(0)](1))"].items()
            if l != gen and not l.is_unit
        ]
        assert not mid
        assert gi.of_monomial(gen) == -g1.of_monomial(gen)

    def test_one_recursion_step(self, bhz_structure, rational_chars):
        # Delta+ tau = tau (x) 1 + 1 (x) tau + sigma (x) sigma' implies
        # g^{-1}(tau) = -g(tau) + g(sigma) g(sigma') when sigma is primitive
        g1, _, _ = rational_chars
        S = bhz_structure
        name = "I[t;(0)](X(1)*I[th;(0)](1))"
        gen = PlusMonomial.of_gen(name, 1)
        gi = g1.invert()
        acc = -g1.of_monomial(gen)
        for (l, r), c in S.dplus_table[name].items():
            if l == gen or l.is_unit:
                continue
            acc = acc - c * gi.of_monomial(l) * g1.of_monomial(r)
        assert gi.of_monomial(gen) == acc


class TestTwoPoint:
    def test_same_point_is_counit(self, bhz_g_model):
        model = bhz_g_model
        S = model.structure
        for name in model.g.values:
            mono = PlusMonomial.of_gen(name, S.dim)
            val = two_point(model.g, (5,), (5,), mono)
            assert abs(val) < 1e-10

    def test_polynomial_two_point_is_difference_power(self, bhz_g_model):
        model = bhz_g_model
        iy, ix = (30,), (90,)
        for k in (1, 2):
            val = two_point(model.g, iy, ix, PlusMonomial.of_poly((k,)))
            diff = model.g.point[0][iy] - model.g.point[0][ix]
            assert val == pytest.approx(diff**k, rel=1e-12)


class TestProjectionFunctional:
    def test_two_forms_agree_off_polynomials(self, bhz_g_model):
        model = bhz_g_model
        S = model.structure
        for mono in S.plus_monomials():
            if mono.is_poly:
                continue
            a = np.asarray(f_character_values(model.g, model.g_inv, mono), dtype=float)
            b = np.asarray(
                f_character_complement(model.g, model.g_inv, mono), dtype=float
            )
            scale = max(np.max(np.abs(a)), 1.0)
            assert np.max(np.abs(a - b)) / scale < 1e-12

    def test_vanishes_on_polynomials(self, bhz_g_model):
        model = bhz_g_model
        vals = f_character_values(model.g, model.g_inv, PlusMonomial.of_poly((1,)))
        assert np.max(np.abs(np.asarray(vals, dtype=float))) < 1e-12

    def test_equals_g_on_first_generator_derivatives(self, bhz_g_model):
        # for the lowest generator every quotient is polynomial, so the
        # projection functional coincides with g on its derivative symbols
        model = bhz_g_model
        S = model.structure
        first = S.check_assumptions().c_generators[0]
        for k in ((0,), (1,)):
            dk = S.d_op(k, PlusMonomial.of_gen(first, 1))
            if not dk:
                continue
            f_vals = np.asarray(
                f_character_values(model.g, model.g_inv, dk), dtype=float
            )
            g_vals = np.asarray(model.g(dk), dtype=float)
            scale = max(np.max(np.abs(g_vals)), 1.0)
            assert np.max(np.abs(f_vals - g_vals)) / scale < 1e-12

    def test_scalar_sampling_consistent_with_fields(self, bhz_g_model):
        model = bhz_g_model
        S = model.structure
        idx = (17,)
        gx = sample_character(model.g, idx)
        for name in model.g.values:
            mono = PlusMonomial.of_gen(name, S.dim)
            assert gx.of_monomial(mono) == model.g_field(mono)[idx]
