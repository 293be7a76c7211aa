"""Decorated trees: canonical hashing, homogeneity bookkeeping, the structural
coproduct, and polynomial-shifted grafting."""
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpara.algebra import FreeVector, PlusMonomial
from regpara.library import RULES, basis
from regpara.rules import Rule, enumerate_basis, export_structure
from regpara.structure_io import write_structure
from regpara.trees import (
    DecoratedTree,
    TreeAlgebra,
    graft,
    parse_tree,
    serialize,
    tree_product,
    unit_tree,
    x_mul,
    x_power,
)

from test_golden import ENUMERATE_CASES
from test_golden import _basis as golden_basis

TYPES = {"xi": Fraction(-5, 8), "t": Fraction(1)}


@pytest.fixture(scope="module")
def algebra():
    return TreeAlgebra(1, TYPES, {"t"})


def random_tree(rng: random.Random, depth: int = 3) -> DecoratedTree:
    if depth == 0 or rng.random() < 0.3:
        return x_power(1, (rng.randint(0, 1),))
    n_branches = rng.randint(1, 2)
    out = x_power(1, (rng.randint(0, 1),))
    for _ in range(n_branches):
        child = random_tree(rng, depth - 1)
        tname = rng.choice(["xi", "t"])
        e = (rng.randint(0, 1),)
        out = tree_product(out, graft(tname, e, child))
    return out


class TestCanonicalForm:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_branches_hash_equal(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng)
        if not t.branches:
            return
        shuffled = list(t.branches)
        rng.shuffle(shuffled)
        t2 = DecoratedTree(t.dim, t.n_dec, tuple(shuffled))
        assert t2 == t
        assert hash(t2) == hash(t)
        assert serialize(t2) == serialize(t)

    def test_product_commutes(self):
        xi = graft("xi", (0,), unit_tree(1))
        it = graft("t", (1,), xi)
        assert tree_product(xi, it) == tree_product(it, xi)
        assert hash(tree_product(xi, it)) == hash(tree_product(it, xi))

    def test_unit_is_neutral(self):
        xi = graft("xi", (0,), unit_tree(1))
        assert tree_product(xi, unit_tree(1)) == xi

    def test_grafted_polynomial_distinct_from_product(self):
        xi = graft("xi", (0,), unit_tree(1))
        inner = graft("t", (0,), x_mul((1,), xi))   # polynomial inside the graft
        outer = x_mul((1,), graft("t", (0,), xi))   # polynomial at the root
        assert inner != outer
        assert serialize(inner) != serialize(outer)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_grammar_round_trip(self, seed):
        t = random_tree(random.Random(seed))
        assert parse_tree(serialize(t), 1) == t

    @pytest.mark.parametrize("name, cutoff",
                             [(name, None) for name in RULES] + ENUMERATE_CASES)
    def test_every_enumerated_tree_round_trips(self, name, cutoff):
        b = basis(name) if cutoff is None else golden_basis(name, cutoff)
        for t in (*b.trees, *b.b_dot, *b.b_dot_tilde, *b.plus_trees):
            assert parse_tree(serialize(t), b.rule.dim) == t

    def test_trees_of_a_dropped_basis_are_freed(self, tmp_path):
        # edge types of their own, so that no other test has built these trees
        rule = Rule(dim=1, cutoff=Fraction(5, 4), noises=(("zeta", Fraction(-5, 8)),),
                    kernels=(("k", Fraction(1)),),
                    products=((("zeta", 1),), (("k", 1),), (("k", 1), ("zeta", 1))),
                    max_e=0, name="freed")
        b = enumerate_basis(rule)
        write_structure(tmp_path / "structure.txt", export_structure(b))
        refs = [weakref.ref(t) for t in (*b.trees, *b.b_dot_tilde, *b.plus_trees)]
        assert len(refs) > 10
        del b
        gc.collect()
        assert [serialize(r()) for r in refs if r() is not None] == []


class TestHomogeneity:
    def test_polynomial_nodes_add(self, algebra):
        assert algebra.homogeneity(x_power(1, (3,))) == 3
        a = x_power(1, (1,))
        b = x_power(1, (2,))
        assert tree_product(a, b) == x_power(1, (3,))

    def test_product_is_additive(self, algebra):
        rng = random.Random(7)
        for _ in range(20):
            a, b = random_tree(rng), random_tree(rng)
            assert algebra.homogeneity(tree_product(a, b)) == algebra.homogeneity(
                a
            ) + algebra.homogeneity(b)

    def test_graft_shifts_by_type_minus_e(self, algebra):
        xi = graft("xi", (0,), unit_tree(1))
        assert algebra.homogeneity(xi) == Fraction(-5, 8)
        assert algebra.homogeneity(graft("t", (0,), xi)) == Fraction(3, 8)
        assert algebra.homogeneity(graft("t", (1,), xi)) == Fraction(-5, 8)

    def test_f_decoration_preserves_homogeneity(self, algebra):
        # moving an interior polynomial decoration onto its parent edge's
        # f-slot keeps the grading
        xi = graft("xi", (0,), unit_tree(1))
        canonical = graft("t", (0,), x_mul((1,), xi))
        lead = algebra.leading_ftree(canonical)
        assert lead != canonical
        assert any(any(b.f_dec) for b in lead.branches)
        assert algebra.homogeneity(lead) == algebra.homogeneity(canonical)


class TestStructuralCoproduct:
    def test_unit_and_primitive_node(self, algebra):
        u = unit_tree(1)
        assert algebra.delta(u) == FreeVector.single((u, PlusMonomial.unit(1)))
        x = x_power(1, (1,))
        got = algebra.delta(x)
        want = FreeVector(
            [
                ((x, PlusMonomial.unit(1)), 1),
                ((u, PlusMonomial.of_poly((1,))), 1),
            ]
        )
        assert got == want

    def test_noise_is_primitive(self, algebra):
        xi = graft("xi", (0,), unit_tree(1))
        assert algebra.delta(xi) == FreeVector.single((xi, PlusMonomial.unit(1)))

    def test_integrated_polynomial_noise_expansion(self, algebra):
        # Delta I_0^t(X Theta) = I_0^t(X Theta) (x) 1 + I_0^t(Theta) (x) X
        #   + sum_{|k| < |Theta| + 1 + |t|} X^k / k! (x) I_k^t(X Theta)
        big = TreeAlgebra(1, {"th": Fraction(-9, 8), "t": Fraction(2)}, {"t"})
        th = graft("th", (0,), unit_tree(1))
        tau = graft("t", (0,), x_mul((1,), th))
        got = big.delta(tau)
        u = unit_tree(1)
        want = FreeVector(
            [
                ((tau, PlusMonomial.unit(1)), 1),
                ((graft("t", (0,), th), PlusMonomial.of_poly((1,))), 1),
                ((u, PlusMonomial.of_gen(tau, 1)), 1),
                ((x_power(1, (1,)), PlusMonomial.of_gen(graft("t", (1,), x_mul((1,), th)), 1)), 1),
            ]
        )
        assert got == want

    def test_truncation_is_strict(self, algebra):
        # |l| + |k| < |tau| + |t| with |tau| + |t| = 3/8 keeps only l = 0,
        # so the polynomial left slots stop at the counit term
        xi = graft("xi", (0,), unit_tree(1))
        tau = graft("t", (0,), xi)
        poly_lefts = [
            left
            for (left, _right), _c in algebra.delta(tau).items()
            if not left.branches
        ]
        assert poly_lefts == [unit_tree(1)]

    def test_grading_over_random_trees(self, algebra):
        rng = random.Random(11)
        for _ in range(15):
            t = random_tree(rng)
            h = algebra.homogeneity(t)
            for (left, right), _c in algebra.delta(t).items():
                right_h = sum(algebra.homogeneity(tr) * m for tr, m in right.gens)
                assert algebra.homogeneity(left) + sum(right.poly) + right_h == h

    def test_multiplicativity(self, algebra):
        rng = random.Random(13)
        for _ in range(10):
            a, b = random_tree(rng, 2), random_tree(rng, 2)
            lhs = algebra.delta(tree_product(a, b))
            rhs = algebra.delta(a).tensor_mul(
                algebra.delta(b), tree_product, PlusMonomial.mul
            )
            assert lhs == rhs


class TestShiftedGrafts:
    def test_zero_shift_is_plain_graft(self, algebra):
        xi = graft("xi", (0,), unit_tree(1))
        got = algebra.graft("t", (1,), xi, (0,))
        assert got == FreeVector.single(graft("t", (1,), xi))

    def test_unit_shift_expansion(self, algebra):
        # eI_0(tau) = X I_0(tau) - I_0(X tau)
        xi = graft("xi", (0,), unit_tree(1))
        got = algebra.graft("t", (0,), xi, (1,))
        want = FreeVector(
            [
                (x_mul((1,), graft("t", (0,), xi)), 1),
                (graft("t", (0,), x_mul((1,), xi)), -1),
            ]
        )
        assert got == want

    def test_kernel_edges_kill_polynomials(self, algebra):
        """I_k(X^n) = 0 in every form of the graft; a noise edge grafts the unit."""
        for n in ((0,), (2,)):
            x = x_power(1, n)
            assert not algebra.graft("t", (0,), x)
            assert not algebra.graft("t", (0,), x, (1,))
            assert not algebra.graft("t", (0,), x, inverse=True)
        one = unit_tree(1)
        assert algebra.graft("xi", (0,), one) == FreeVector.single(graft("xi", (0,), one))

    def test_inversion_round_trip(self, algebra):
        # I_k(X^l sigma) = sum_m binom(l, m) X^m (-1)^{l-m} {l-m}I_k(sigma)
        xi = graft("xi", (0,), unit_tree(1))
        for l in ((1,), (2,)):
            direct = FreeVector.single(graft("t", (0,), x_mul(l, xi)))
            via = algebra.graft("t", (0,), x_mul(l, xi), inverse=True)
            back = FreeVector.zero()
            for ftree, c in via.items():
                back = back + algebra.to_canonical(ftree).scale(c)
            assert back == direct

    def test_change_of_basis_round_trip_on_shipped_bases(self):
        for name in ("toy", "bhz", "twonoise"):
            tb = basis(name)
            alg = tb.algebra
            for t in tb.b_dot:
                back = FreeVector.zero()
                for ft, c in alg.to_noncanonical(t).items():
                    back = back + alg.to_canonical(ft).scale(c)
                assert back == FreeVector.single(t)
            for ft in tb.b_dot_tilde:
                back = FreeVector.zero()
                for t, c in alg.to_canonical(ft).items():
                    back = back + alg.to_noncanonical(t).scale(c)
                assert back == FreeVector.single(ft)

    def test_basis_change_is_unitriangular_up_to_sign(self):
        # the leading companion tree carries coefficient (-1)^{moved degree}
        tb = basis("bhz")
        alg = tb.algebra
        for t in tb.b_dot:
            lead = alg.leading_ftree(t)
            expansion = alg.to_noncanonical(t)
            moved = sum(sum(b.f_dec) for b in lead.branches)
            assert expansion.coeff(lead) == (-1) ** moved
