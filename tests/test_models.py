"""Model construction, bracket extraction, and the defining round trips."""
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from regpara import models, paraproducts
from regpara.algebra import BaseSymbol, PlusMonomial, mi_zero
from regpara.blocks import BlockDecomposition, make_partition
from regpara.grid import Field, Grid
from regpara.library import structure
from regpara.models import (
    BracketExtractor,
    Model,
    build_g,
    build_pi,
    default_m,
    diag_derivative,
    extract_brackets,
    g_as_model,
    plus_bound,
    random_brackets,
    reconstruct,
)
from regpara.norms import holder_norm, interior_mask, log_scale_fit
from regpara.translation import md_from_paracontrolled, random_md_brackets, validate_model

from conftest import build_random_model, lone_product, products_one_by_one


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-30)


def _recentered_at(model, idx, t):
    """Pi^g_x t at the grid point x = idx, read off the separable family."""
    return sum(c[idx] * u for c, u in model.pi_recentered_family(t).terms)


class TestBuildExtractRoundTrips:
    @pytest.mark.parametrize("name", ["toy", "bhz"])
    def test_pi_brackets_recovered(self, name, grid512):
        S = structure(name)
        model, _gb, pib = build_random_model(S, grid512)
        data = extract_brackets(model, with_reports=False)
        for gen, f in pib.items():
            sym = BaseSymbol(gen, mi_zero(S.dim))
            assert rel_err(data.pi_side[sym], f.values) < 1e-10

    @pytest.mark.parametrize("name", ["toy", "bhz"])
    def test_g_brackets_recovered(self, name, grid512):
        S = structure(name)
        model, gb, _pib = build_random_model(S, grid512)
        Mg = g_as_model(S, grid512, model.g, plus_bound(S))
        data = extract_brackets(Mg, m=0, with_reports=False)
        for gen, f in gb.items():
            mono = PlusMonomial.of_gen(gen, S.dim)
            assert rel_err(data.g_side[mono], f.values) < 1e-8

    def test_minimal_bracket_is_the_field_itself(self, toy_model, toy_structure):
        # a generator with no intermediate terms extracts to g(tau) itself
        model, _gb, _pib = toy_model
        S = toy_structure
        first = S.check_assumptions().c_generators[0]
        Mg = g_as_model(S, model.grid, model.g, plus_bound(S))
        data = extract_brackets(Mg, m=0, with_reports=False)
        mono = PlusMonomial.of_gen(first, S.dim)
        assert rel_err(data.g_side[mono], Mg.g_field(mono)) < 1e-12

    def test_extraction_order_m_matters_but_roundtrip_holds(self, toy_structure, grid512):
        S = toy_structure
        model, _gb, pib = build_random_model(S, grid512, seed=77)
        for m in (0, default_m(S) + 1):
            model2 = build_pi(S, grid512, model.g, pib, m=m)
            data = extract_brackets(model2, m=m, with_reports=False)
            for gen, f in pib.items():
                sym = BaseSymbol(gen, mi_zero(S.dim))
                assert rel_err(data.pi_side[sym], f.values) < 1e-10

    def test_extracted_bracket_regularity_certificates(self, toy_model, toy_structure):
        model, _gb, _pib = toy_model
        data = extract_brackets(model)
        mask = interior_mask(model.grid)
        for sym, vals in data.pi_side.items():
            target = float(toy_structure.homog_base(sym))
            rep = holder_norm(Field(model.grid, vals), target, mask=mask)
            if rep.slope is not None:
                assert rep.slope >= target - 0.2, (str(sym), rep.slope, target)


class TestModelInvariants:
    def test_polynomial_character_exact(self, toy_model, toy_structure):
        model, _gb, _pib = toy_model
        for k in ((0,), (1,), (2,)):
            got = np.broadcast_to(
                np.asarray(model.g(PlusMonomial.of_poly(k)), dtype=float),
                model.grid.shape,
            )
            assert np.array_equal(got, model.grid.poly(k))

    def test_polynomial_action_exact(self, toy_model, toy_structure):
        model, _gb, _pib = toy_model
        for name in model.pi:
            for k in ((1,), (2,)):
                sym = BaseSymbol(name, k)
                want = model.grid.poly(k) * model.pi[name]
                assert np.array_equal(model.pi_symbol(sym), want)

    def test_unit_recentering_is_constant_one(self, toy_model):
        model, _gb, _pib = toy_model
        fam = model.pi_recentered_family(BaseSymbol.unit(1))
        assert np.array_equal(fam.diagonal().values, np.ones(model.grid.shape))

    def test_recentering_collapses_for_primitive_symbol(self, toy_model, toy_structure):
        # Delta tau = tau (x) 1 for the noise, so Pi^g_x tau = Pi tau
        model, _gb, _pib = toy_model
        S = toy_structure
        noise = min(
            (n for n in S.base_gens if n != "1"), key=lambda n: S.base_gens[n]
        )
        sym = BaseSymbol(noise, mi_zero(S.dim))
        assert len(S.delta(sym)) == 1
        f = _recentered_at(model, (13,), sym)
        assert np.array_equal(f, model.pi[noise])

    def test_recentering_comodule_compatibility(self, toy_model, toy_structure):
        # Pi tau = Pi^g_x tau + Pi^g_x h_tau(x): exact rearrangement of Delta
        model, _gb, _pib = toy_model
        S = toy_structure
        idx = (37,)
        for name in model.pi:
            if name == "1":
                continue
            sym = BaseSymbol(name, mi_zero(S.dim))
            lhs = model.pi_symbol(sym)
            recentered = _recentered_at(model, idx, sym)
            h_part = np.zeros(model.grid.shape)
            for (left, right), c in S.delta(sym).sorted_items():
                if left == sym:
                    continue
                h_part += (
                    float(c)
                    * model.g_field(right)[idx]
                    * _recentered_at(model, idx, left)
                )
            assert np.max(np.abs(lhs - recentered - h_part)) < 1e-9 * np.max(
                np.abs(lhs)
            )

    @pytest.mark.parametrize("name", ["toy", "bhz"])
    def test_full_validation(self, name, grid512):
        S = structure(name)
        model, _gb, _pib = build_random_model(S, grid512)
        rep = validate_model(model, samples=30)
        assert rep.ok, "\n".join(c.line() for c in rep.checks if not c.passed)
        # a D-family check keeps the series its slope was fitted on
        family = [c for c in rep.checks if c.name.startswith("d:family:")]
        assert family
        for c in family:
            js = range(-1, len(c.norm.series) - 1)
            assert -log_scale_fit(js, c.norm.series, c.norm.window)[0] == c.value, c.name

    def test_g_model_validation(self, bhz_g_model):
        rep = validate_model(bhz_g_model, samples=30)
        assert rep.ok, "\n".join(c.line() for c in rep.checks if not c.passed)


class TestBuildGDetails:
    def test_order_independence_between_equal_homogeneity_generators(self, grid512):
        # both generation orders consume only strictly lower data, so the
        # results agree; the two-noise structure has an equal-homogeneity pair
        S = structure("twonoise")
        gb, _pib = random_brackets(S, grid512, 60)
        pairs = {}
        for r in gb:
            pairs.setdefault(S.plus_gens[r], []).append(r)
        assert any(len(v) > 1 for v in pairs.values())
        g1 = build_g(S, grid512, gb)
        g2 = build_g(S, grid512, gb)  # deterministic repeat
        for n in g1.values:
            assert np.array_equal(g1.values[n], g2.values[n])

    def test_missing_bracket_raises(self, toy_structure, grid256):
        with pytest.raises(ValueError) as err:
            build_g(toy_structure, grid256, {})
        roots = toy_structure.check_assumptions().c_generators
        assert str(err.value) == f"g-brackets: missing {roots}, not coordinates []"

    @pytest.mark.parametrize("extra", ["orbit-member", "nonsense"])
    def test_key_outside_the_coordinates_raises(self, grid256, extra):
        """g of an orbit member D^k root comes from the diagonal-derivative
        formula, so a bracket for it is an error, as one for an unknown
        name is; neither is dropped."""
        S = structure("bhz", noncanonical=True)
        orbit = S.check_assumptions().c_orbit
        if extra == "orbit-member":
            extra = next(n for n, (_root, k) in orbit.items() if any(k))
        gb, _pib = random_brackets(S, grid256, 3)
        gb[extra] = next(iter(gb.values()))
        with pytest.raises(ValueError) as err:
            build_g(S, grid256, gb)
        assert str(err.value) == f"g-brackets: missing [], not coordinates [{extra!r}]"

    def test_derivative_member_zero_beyond_homogeneity(self, grid256):
        # requesting D^k values with |k| >= |tau| stores the zero field
        S = structure("bhz")
        rep = S.check_assumptions()
        g = build_g(S, grid256, random_brackets(S, grid256, 3)[0])
        for name, (root, k) in rep.c_orbit.items():
            if any(k):
                assert name in g.values

    def test_diagonal_derivative_product_rule_on_coordinates(self, toy_model):
        # the coordinate field is band-limited, so the spectral derivative of
        # its square obeys the product rule to machine precision, and the
        # coordinate agrees with true x deep inside the box
        from regpara.blocks import derivative as spectral_d

        model, _gb, _pib = toy_model
        grid = model.grid
        s = grid.coord_fields()[0]
        got = diag_derivative(model, PlusMonomial.of_poly((2,)), (1,))
        s_prime = spectral_d(Field(grid, s), (1,)).values
        want = 2.0 * s * s_prime
        assert np.max(np.abs(got - want)) < 1e-10 * max(np.max(np.abs(want)), 1.0)
        deep = np.abs(grid.axis()) < 0.35 * grid.box
        assert np.max(np.abs(s - grid.axis())[deep]) < 5e-3

    def test_boundary_case_of_the_subtracted_sum(self, grid512):
        # structure with an integer-homogeneity generator: |sigma| = |k| terms
        # are included in the diagonal-derivative subtraction; dropping them
        # changes the result, and the shipped convention keeps the
        # projection-functional identity exact
        from regpara.rules import Rule, enumerate_basis, export_structure
        from regpara.translation import lemma_gx_fx_residual

        rule = Rule(
            dim=1,
            cutoff=Fraction(9, 4),
            noises=(("th", Fraction(-5, 8)),),
            kernels=(("t", Fraction(13, 8)),),
            products=((("th", 1),), (("t", 1),)),
            polybound=1,
            max_e=0,
            name="boundary",
        )
        S = export_structure(enumerate_basis(rule))
        rep = S.check_assumptions()
        assert rep.c_ok
        # |I_0(Theta)| = 1 sits exactly at |k| = 1 for the bigger root
        assert Fraction(1) in {S.plus_gens[r] for r in rep.c_generators}
        g = build_g(S, grid512, random_brackets(S, grid512, 5)[0])
        model = g_as_model(S, grid512, g, plus_bound(S))
        res = lemma_gx_fx_residual(model)
        assert res < 1e-6
        # independent check that the boundary term genuinely contributes
        big = [r for r in rep.c_generators if S.plus_gens[r] > 1][0]
        mono = PlusMonomial.of_gen(big, 1)
        boundary_terms = [
            (left, right)
            for (left, right), _c in S.dplus_table[big].items()
            if not left.is_poly and left != mono and S.homog_plus(left) == 1
        ]
        assert boundary_terms
        contribution = np.zeros(grid512.shape)
        for left, right in boundary_terms:
            inner = np.zeros(grid512.shape)
            for (mu, nu), c2 in S.delta_plus(left).sorted_items():
                inner += float(c2) * diag_derivative(model, mu, (1,)) * \
                    model.g_inv_field(nu)
            contribution += model.g_field(right) * inner
        assert np.max(np.abs(contribution)) > 1e-6


class TestBuildPiDetails:
    def test_missing_and_extra_brackets_raise(self, toy_structure, grid256, toy_model):
        model, _gb, _pib = toy_model
        S = toy_structure
        negs = S.pi_coordinates()
        with pytest.raises(ValueError) as err:
            build_pi(S, grid256, model.g, {})
        assert str(err.value) == f"Pi-brackets: missing {negs}, not coordinates []"
        _gb, pib = random_brackets(S, grid256, 3)
        bad = {n: pib[n] for n in negs[1:]} | {"1": pib[negs[0]], "nonsense": pib[negs[0]]}
        with pytest.raises(ValueError) as err:
            build_pi(S, grid256, model.g, bad)
        assert str(err.value) == (f"Pi-brackets: missing {negs[:1]}, "
                                  "not coordinates ['1', 'nonsense']")

    def test_single_negative_generator_is_its_own_bracket(self, toy_model, toy_structure):
        model, _gb, pib = toy_model
        S = toy_structure
        noise = min((n for n in S.base_gens if n != "1"), key=lambda n: S.base_gens[n])
        assert np.array_equal(model.pi[noise], pib[noise].values)

    def test_positive_extension_matches_reconstruction_path(self, toy_model, toy_structure):
        from regpara.models import h_coefficients, reconstruct

        model, _gb, _pib = toy_model
        S = toy_structure
        for name, h in S.base_gens.items():
            if h <= 0 or name == "1":
                continue
            sym = BaseSymbol(name, mi_zero(S.dim))
            want = reconstruct(model, h_coefficients(model, sym), h)
            assert np.array_equal(model.pi[name], want.values)

    def test_positive_fields_follow_their_paracontrolled_profile(self, toy_model, toy_structure):
        # the reconstructed positive fields carry the regularity of the
        # lowest generator entering their expansion, measured one-sided
        model, _gb, _pib = toy_model
        S = toy_structure
        mask = interior_mask(model.grid)
        for name, h in S.base_gens.items():
            if h <= 0 or name == "1":
                continue
            lows = [
                float(S.base_gens[left.core]) + sum(left.poly)
                for (left, _r), _c in S.delta(BaseSymbol(name, mi_zero(S.dim))).items()
                if left.core != "1"
            ]
            target = min(lows)
            rep = holder_norm(Field(model.grid, model.pi[name]), target, mask=mask)
            assert rep.slope is not None and rep.slope >= target - 0.25


class TestFirstGeneratorTaylorStructure:
    def test_two_point_expansion_of_derivative_members(self, grid512):
        # for the lowest generator the coproduct of each derivative member is
        # purely polynomial, so its two-point function is the exact Taylor
        # remainder in the smoothed coordinates
        from fractions import Fraction as Fr

        from regpara.characters import sample_character
        from regpara.rules import Rule, enumerate_basis, export_structure

        rule = Rule(
            dim=1,
            cutoff=Fr(2),
            noises=(("th", Fr(-1, 8)),),
            kernels=(("t", Fr(2)),),
            products=((("th", 1),), (("t", 1),)),
            polybound=1,
            max_e=0,
            name="first",
        )
        S = export_structure(enumerate_basis(rule))
        rep = S.check_assumptions()
        first = rep.c_generators[0]
        assert S.plus_gens[first] > 1  # has a genuine derivative member
        from regpara.models import build_g

        g = build_g(S, grid512, random_brackets(S, grid512, 8)[0])
        model = Model(S, grid512, g, {})
        members = sorted(n for n, (r, k) in rep.c_orbit.items() if r == first)
        iy, ix = (101,), (317,)
        gy = sample_character(g, iy)
        gx = sample_character(g, ix)
        diff = g.point[0][iy] - g.point[0][ix]
        from regpara.translation import _two_point

        for name in members:
            k = rep.c_orbit[name][1]
            mono = PlusMonomial.of_gen(name, 1)
            lhs = _two_point(model, mono, iy, ix)
            rhs = gy.of_monomial(mono)
            l = 0
            while True:
                kl = (k[0] + l,)
                target = [n for n, (r2, k2) in rep.c_orbit.items()
                          if r2 == first and k2 == kl]
                if not target:
                    break
                rhs -= diff**l / math.factorial(l) * gx.of_monomial(
                    PlusMonomial.of_gen(target[0], 1)
                )
                l += 1
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestPolynomialOnlyModel:
    def test_taylor_model_validates(self, grid256):
        from regpara.algebra import polynomial_structure
        from regpara.characters import field_character
        from regpara.translation import md_from_paracontrolled, random_md_brackets, validate_model

        S = polynomial_structure(1, 2)
        model = Model(S, grid256, field_character(S, grid256, {}), {})
        rep = validate_model(model, samples=10)
        assert rep.ok



# -- the extractor's coefficients c g(tau/sigma) ------------------------------------

COEF_CASES = [("toy", Grid(1, 1024, np.pi)), ("bhz", Grid(1, 1024, np.pi)),
              ("toy2d", Grid(2, 64, np.pi))]
COEF_IDS = ["toy-1024", "bhz-noncanonical-1024", "toy2d-64"]


class _FreshCoefficients(BracketExtractor):
    """An extractor that forms every product from fresh Fields: it
    evaluates every coefficient c g(tau/sigma) anew and copies every
    bracket, as bare arrays, for every term that takes them, so that no
    operand keeps rows."""

    def coproduct_terms(self, tau, coproduct, bracket):
        for c, quot, sigma in self.term_keys(tau, coproduct):
            yield float(c) * self.model.g_field(quot), bracket(sigma).values


def _coef_model(name, grid):
    return build_random_model(structure(name, noncanonical=name == "bhz"), grid)


def _assert_same_brackets(got, want):
    """Both sides of two BracketData, bit for bit, and their report lines."""
    for side in ("g_side", "pi_side"):
        have, need = getattr(got, side), getattr(want, side)
        assert have.keys() == need.keys() and have
        for key, vals in need.items():
            assert np.array_equal(have[key].view(np.int64), vals.view(np.int64)), key
    for have, need in zip(got.report.checks, want.report.checks, strict=True):
        assert (have.name, have.norm.lines()) == (need.name, need.norm.lines())


class TestCoefficientMemo:
    @pytest.mark.parametrize("name, grid", COEF_CASES, ids=COEF_IDS)
    def test_outputs_equal_those_from_fresh_coefficients(self, name, grid, monkeypatch):
        """The planned extraction, which keeps the operand rows of a Field
        from its first product to its last, returns the bits and report
        lines of one from fresh Fields, which keeps none, and of a second
        planned extraction; once it returns, no Field it held keeps rows."""
        model, gb, pib = _coef_model(name, grid)
        S = model.structure
        ex = BracketExtractor(model, default_m(S))
        held = []

        def holding(f):
            held.append(f)
            paraproducts.hold_rows(f)

        monkeypatch.setattr(models, "hold_rows", holding)
        got = extract_brackets(model)
        assert held and all(f._rows is None for f in held)
        _assert_same_brackets(extract_brackets(model), got)
        built_g = build_g(S, grid, gb)
        built = build_pi(S, grid, built_g, pib)
        monkeypatch.setattr(models, "BracketExtractor", _FreshCoefficients)
        del held[:]
        want = extract_brackets(model)
        assert not held
        want_g = build_g(S, grid, gb)
        want_pi = build_pi(S, grid, want_g, pib)
        _assert_same_brackets(got, want)
        for gen, vals in want_g.values.items():
            assert np.array_equal(built_g.values[gen], vals), gen
        for gen, vals in want_pi.pi.items():
            assert np.array_equal(built.pi[gen].view(np.int64), vals.view(np.int64)), gen
        # and term by term: a product from a kept coefficient is that from a fresh array
        for mono in got.g_side:
            for (left, right), c in S.delta_plus(mono).sorted_items():
                if left == mono or left.is_poly:
                    continue
                u = ex.g_bracket(left)
                kept = lone_product(ex, ex.coefficient(c, right), u)
                fresh = lone_product(ex, float(c) * model.g_field(right), u.values.copy())
                assert np.array_equal(kept.view(np.int64), fresh.view(np.int64)), (mono, left)

    def test_one_field_per_key_and_none_held_after_extraction(self, monkeypatch):
        """Each (c, tau/sigma) is one read-only Field for the extractor's
        life; extraction lets the extractor go before its reports run, so
        every coefficient array still alive while they run is the values of
        an extracted g-bracket.  On toy that is one array, g(I[t](I[xi])),
        the bracket of a step that adds no term."""
        model, _gb, _pib = _coef_model("toy", Grid(1, 1024, np.pi))
        fields, refs, live_at_reports = {}, [], []
        coefficient = BracketExtractor.coefficient

        def spy(self, c, quot):
            f = coefficient(self, c, quot)
            fields.setdefault((c, quot), set()).add(id(f))
            refs.append(weakref.ref(f.values))
            assert not f.values.flags.writeable
            return f

        def reporting(f, alpha, *args, **kwargs):
            live_at_reports.append({id(a) for r in refs if (a := r()) is not None})
            return holder_norm(f, alpha, *args, **kwargs)

        monkeypatch.setattr(BracketExtractor, "coefficient", spy)
        monkeypatch.setattr(models, "holder_norm", reporting)
        data = extract_brackets(model)
        assert fields and all(len(ids) == 1 for ids in fields.values())
        assert len(refs) > len(fields)   # some coefficient serves several terms
        assert len(live_at_reports) == len(data.report.checks)
        brackets = {id(v) for v in data.g_side.values()}
        assert all(live <= brackets and len(live) == 1 for live in live_at_reports)
        del data
        assert all(r() is None for r in refs)

    def test_each_g_value_evaluated_and_each_field_transformed_once(self, monkeypatch):
        """One toy extraction evaluates g(mono) once per monomial, and no two
        distinct g-side Fields hold the same bits, so none is transformed
        twice: the g-bracket of I[t](I[xi]), whose step adds no term, is the
        Field of the coefficient 1 g(I[t](I[xi])) of other terms.  (The
        Pi-bracket of the base symbol I[t](I[xi]) has those bits too, but is
        Pi's own field, not a g-side one.)"""
        model, _gb, _pib = _coef_model("toy", Grid(1, 1024, np.pi))
        evaluated, fields = Counter(), []
        g_field = model.g_field

        def counted(v):
            evaluated[v] += 1
            return g_field(v)

        def kept(method):
            def spy(self, *args):
                f = method(self, *args)
                fields.append(f)
                return f
            return spy

        monkeypatch.setattr(model, "g_field", counted)
        for name in ("g_bracket", "coefficient"):
            monkeypatch.setattr(BracketExtractor, name, kept(getattr(BracketExtractor, name)))
        extract_brackets(model)
        assert evaluated and max(evaluated.values()) == 1, evaluated.most_common(3)
        by_bits = {}
        for f in fields:
            by_bits.setdefault(f.values.tobytes(), {})[id(f)] = f
        assert all(len(group) == 1 for group in by_bits.values())
        S = model.structure
        ex = BracketExtractor(model, default_m(S))
        no_term = [mono for mono in S.plus_monomials(plus_bound(S)) if not mono.is_poly
                   and not list(ex.coproduct_terms(mono, S.delta_plus(mono), ex.g_bracket))]
        assert [str(mono) for mono in no_term] == ["I[t;(0)](I[xi;(0)](1))"]
        assert ex.g_bracket(no_term[0]) is ex.coefficient(1, no_term[0])


class TestOperandRows:
    def test_each_operand_side_is_transformed_once(self, monkeypatch):
        """One toy extraction at n = 1024 forms the operand rows of each of
        its 15 coefficients and 9 brackets once, 8 rows a side (6 on
        sub-grids, 2 top blocks): 192 inverse-transform rows for its 31
        products, where forming both sides of every product made 496."""
        model, _gb, _pib = _coef_model("toy", Grid(1, 1024, np.pi))
        groups, full = paraproducts._schedule(make_partition(model.grid), False)
        per_side = sum(len(syms) // 2 for _, syms in groups) + len(full)
        rows, operands = [], []
        irfft, block_sum = BlockDecomposition.irfft, models.paraproduct_sum

        def counting(self, spec, size=None, out=None):
            if spec.ndim > self.grid.dim:   # a stack of rows, not a final transform
                rows.append(len(spec))
            return irfft(self, spec, size, out)

        def recording(decomp, m, pairs):
            def drawn():
                for pair in pairs:
                    operands.append(pair)
                    yield pair
            return block_sum(decomp, m, drawn())

        monkeypatch.setattr(BlockDecomposition, "irfft", counting)
        monkeypatch.setattr(models, "paraproduct_sum", recording)
        extract_brackets(model, with_reports=False)
        coefs, brackets = ({id(pair[side]) for pair in operands} for side in (0, 1))
        assert (len(operands), len(coefs), len(brackets), per_side) == (31, 15, 9, 8)
        assert sum(rows) == (len(coefs) + len(brackets)) * per_side == 192


def _multi_term_steps(model):
    """(extractor, start, terms) of every step with two or more terms of an
    extraction of model, g-side then Pi-side, and of md_to's reconstruction
    step <f>^M = Rf - sum P_{f_sigma} <sigma>^M of a (D)-mode md at gamma =
    9/8, each term list drawn in full."""
    S = model.structure
    data = extract_brackets(model, with_reports=False)
    ex = BracketExtractor(model, default_m(S))
    out = []
    for keys, delta, bracket, start in (
            (data.g_side, S.delta_plus, ex.g_bracket, lambda mono: ex.coefficient(1, mono)),
            (data.pi_side, S.delta, ex.pi_bracket, model.pi_symbol)):
        for tau in keys:
            terms = list(ex.coproduct_terms(tau, delta(tau), bracket))
            if len(terms) > 1:
                out.append((ex, start(tau), terms))
    gamma = Fraction(9, 8)
    md = md_from_paracontrolled(model, random_md_brackets(S, model.grid, gamma, 100), gamma)
    ex0 = BracketExtractor(model, 0)
    terms = [(md.coeff(sym), ex0.pi_bracket(sym)) for sym in data.pi_side]
    out.append((ex0, reconstruct(model, md.coeffs, gamma), terms))
    return out


class TestStepBlockSum:
    @pytest.mark.parametrize("name, grid", COEF_CASES, ids=COEF_IDS)
    def test_a_step_is_the_sum_of_its_products(self, name, grid):
        """A step of k terms, one block sum, equals its start minus its k
        products added one by one in order, to 1e-12 of the largest value."""
        model, _gb, _pib = _coef_model(name, grid)
        for ex, start, terms in _multi_term_steps(model):
            got = ex.step(start, terms)
            want = products_one_by_one(ex, start, terms)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name, grid", COEF_CASES, ids=COEF_IDS)
    def test_a_step_makes_the_transforms_of_one_product(self, name, grid, monkeypatch):
        """Of operands already transformed, a step of k terms makes one
        inverse FFT onto the grid that is not a stack of rows, one forward
        FFT per sub-grid group and one of its top blocks' sum (m > 0), as
        one product does; a step with no term makes no transform."""
        model, _gb, _pib = _coef_model(name, grid)
        ex, start, terms = max(_multi_term_steps(model), key=lambda step: len(step[2]))
        terms = [(c if isinstance(c, Field) else Field(grid, c), u) for c, u in terms]
        for c, u in terms:
            c.spectrum, u.spectrum
        forward, inverse = [], []

        def spy(fn, calls, forward_fft):
            def counted(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                if forward_fft:
                    calls.append(np.shape(a))
                elif np.ndim(a) == grid.dim and np.shape(out) == grid.shape:
                    calls.append(np.shape(out))
                return out
            return counted

        for fft, calls, forward_fft in (("rfft", forward, True), ("rfftn", forward, True),
                                        ("irfft", inverse, False), ("irfftn", inverse, False)):
            monkeypatch.setattr(np.fft, fft, spy(getattr(np.fft, fft), calls, forward_fft))
        ex.step(start, terms)
        groups, _full = paraproducts._schedule(ex.decomp, False)
        assert len(terms) >= 4
        assert forward == [(size,) * grid.dim for size, _syms in groups] + [grid.shape] * (ex.m > 0)
        assert inverse == [grid.shape]
        del forward[:], inverse[:]
        assert np.array_equal(ex.step(start, []), start.values)
        assert forward == inverse == []
