"""Modelled distributions, paracontrolled systems, reconstruction, and the
auxiliary cross-check structure."""
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from regpara.algebra import (
    BaseSymbol,
    FreeVector,
    PlusMonomial,
    mi_abs,
    mi_factorial,
    mi_range,
    mi_zero,
    polynomial_structure,
)
from regpara.blocks import derivative
from regpara.characters import f_character_values, field_character
from regpara.grid import Field, Grid
from regpara.library import structure
from regpara.models import (
    BracketExtractor,
    Model,
    build_g,
    random_brackets,
    reconstruct,
    reconstruction_family,
)
from regpara.norms import (
    dyadic_separations,
    holder_norm,
    interior_mask,
    log_scale_fit,
    synthesize,
)
from regpara.translation import (
    ModelledDistribution,
    SLOPE_TOL,
    StructureConditionError,
    _d_symbol_vectors,
    _delta_aux_coassoc_defect,
    chen_residual,
    lambda_cross_check,
    lemma_gyx_f_residual,
    md_from_paracontrolled,
    md_to_paracontrolled,
    random_md_brackets,
    reconstruction_report,
    two_point_g_report,
    validate_md,
    validate_model,
)

from conftest import build_random_model, perturbed_structure, products_one_by_one

GAMMA = Fraction(9, 8)


@pytest.fixture(scope="module")
def md_setup(toy_structure, grid512):
    model, _gb, _pib = build_random_model(toy_structure, grid512, seed=20)
    brackets = random_md_brackets(toy_structure, grid512, GAMMA, seed=100)
    md = md_from_paracontrolled(model, brackets, GAMMA, mode="d")
    return model, brackets, md


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-30)


class TestModelledDistributionRoundTrips:
    def test_validates(self, md_setup):
        model, _brackets, md = md_setup
        rep = validate_md(model, md)
        assert rep.ok, "\n".join(c.line() for c in rep.checks if not c.passed)

    def test_representation_recovers_brackets(self, md_setup):
        model, brackets, md = md_setup
        system = md_to_paracontrolled(model, md, with_reports=False)
        for sym, want in brackets.items():
            assert rel_err(system.brackets[sym], want) < 1e-10

    def test_top_symbol_bracket_is_the_coefficient(self, md_setup):
        model, _brackets, md = md_setup
        S = model.structure
        top = max(md.coeffs, key=lambda s: S.homog_base(s))
        system = md_to_paracontrolled(model, md, with_reports=False)
        assert np.array_equal(system.brackets[top], md.coeffs[top])

    def test_general_mode_agrees_with_direct_mode(self, md_setup):
        model, _brackets, md = md_setup
        system = md_to_paracontrolled(model, md, with_reports=False)
        md2 = md_from_paracontrolled(model, dict(system.brackets), GAMMA, mode="general")
        for sym, want in md.coeffs.items():
            assert rel_err(md2.coeffs[sym], want) < 1e-10

    def test_rebuild_from_extracted_system(self, md_setup):
        model, _brackets, md = md_setup
        system = md_to_paracontrolled(model, md, with_reports=False)
        core_only = {s: system.brackets[s] for s in model.structure.md_coordinates(GAMMA)}
        md3 = md_from_paracontrolled(model, core_only, GAMMA, mode="d")
        for sym, want in md.coeffs.items():
            assert rel_err(md3.coeffs[sym], want) < 1e-8

    def test_structure_condition_violation_raises_with_witness(self, md_setup):
        model, _brackets, md = md_setup
        system = md_to_paracontrolled(model, md, with_reports=False)
        corrupted = dict(system.brackets)
        victim = next(s for s in corrupted if any(s.poly))
        corrupted[victim] = corrupted[victim] + synthesize(
            0.0, 999, model.grid
        ).values * float(np.max(np.abs(corrupted[victim])))
        with pytest.raises(StructureConditionError) as err:
            md_from_paracontrolled(model, corrupted, GAMMA, mode="general")
        assert err.value.residual > 1e-6

    def test_corrupted_coefficient_fails_validation(self, md_setup):
        model, _brackets, md = md_setup
        S = model.structure
        victim = min(md.coeffs, key=lambda s: S.homog_base(s))
        bad = dict(md.coeffs)
        bad[victim] = bad[victim] + synthesize(0.0, 4, model.grid).values * float(
            np.max(np.abs(bad[victim]))
        )
        rep = validate_md(model, ModelledDistribution(S, model.grid, GAMMA, bad))
        assert not rep.ok

    def test_zero_distribution_passes(self, md_setup):
        model, _brackets, _md = md_setup
        md0 = ModelledDistribution(model.structure, model.grid, GAMMA, {})
        assert validate_md(model, md0).ok

    def test_coeff_returns_the_stored_array_or_zeros(self, md_setup):
        _model, _brackets, md = md_setup
        for sym, vals in md.coeffs.items():
            assert md.coeff(sym) is vals
        missing = BaseSymbol("xi", (7,))
        assert missing not in md.coeffs
        zeros = md.coeff(missing)
        assert zeros.shape == md.grid.shape and not np.any(zeros)


class TestMdCoordinates:
    """md_from checks its keys as build_g and build_pi do: every coordinate
    of the mode that is missing and every key outside them is named."""

    @staticmethod
    def _raises(model, keys, mode):
        brackets = {s: np.zeros(model.grid.shape) for s in keys}
        with pytest.raises(ValueError) as err:
            md_from_paracontrolled(model, brackets, GAMMA, mode=mode)
        return str(err.value)

    @pytest.mark.parametrize("mode", ["d", "general"])
    def test_missing_keys_are_named(self, md_setup, mode):
        model = md_setup[0]
        S = model.structure
        coords = S.md_coordinates(GAMMA) if mode == "d" else S.base_symbols(GAMMA)
        want = f"md-brackets: missing {[str(s) for s in coords[::2]]}, not coordinates []"
        assert self._raises(model, coords[1::2], mode) == want

    @pytest.mark.parametrize("mode, extra", [("d", "polynomial"), ("d", "above-gamma"),
                                             ("general", "above-gamma")])
    def test_keys_outside_the_coordinates_are_named(self, md_setup, mode, extra):
        """A polynomial-decorated symbol is no (D)-mode coordinate (its
        coefficient comes from the diagonal-derivative formula), and X_(5)
        lies above gamma in either mode."""
        model = md_setup[0]
        S = model.structure
        coords = S.md_coordinates(GAMMA) if mode == "d" else S.base_symbols(GAMMA)
        key = (next(s for s in S.base_symbols(GAMMA) if any(s.poly)) if extra == "polynomial"
               else BaseSymbol("1", (5,)))
        want = f"md-brackets: missing [], not coordinates ['{key}']"
        assert self._raises(model, [*coords, key], mode) == want


class TestReconstruction:
    def test_d_gamma_slope(self, md_setup):
        model, _brackets, md = md_setup
        rep = reconstruction_report(model, md)
        assert rep.slope is not None
        assert rep.slope >= float(GAMMA) - 0.2

    def test_unit_only_distribution_reconstructs_to_its_coefficient(self, md_setup):
        model, _brackets, _md = md_setup
        f0 = synthesize(float(GAMMA), 12, model.grid)
        md1 = ModelledDistribution(
            model.structure, model.grid, GAMMA,
            {BaseSymbol.unit(1): f0.values},
        )
        rf = reconstruct(model, md1.coeffs, GAMMA)
        assert rel_err(rf.values, f0.values) < 1e-12

    def test_negative_exponent_reconstruction_differs_by_regular_part(self, md_setup):
        # below zero the reconstruction is non-unique: the built Pi field is
        # another reconstruction of its own expansion, and the defect carries
        # the homogeneity of the symbol
        from regpara.models import h_coefficients

        model, _brackets, _md = md_setup
        S = model.structure
        name = max(S.pi_coordinates(), key=lambda n: S.base_gens[n])
        h = S.base_gens[name]
        sym = BaseSymbol(name, mi_zero(S.dim))
        rf = reconstruct(model, h_coefficients(model, sym), h)
        resid = Field(model.grid, model.pi[name] - rf.values)
        rep = holder_norm(resid, float(h), mask=interior_mask(model.grid))
        assert rep.slope is not None and rep.slope >= float(h) - 0.2

    def test_taylor_jet_recovery(self, grid512):
        SP = polynomial_structure(1, Fraction(2))
        model = Model(SP, grid512, field_character(SP, grid512, {}), {})
        F = synthesize(1.4, 7, grid512)
        jet = {
            BaseSymbol("1", (0,)): F.values,
            BaseSymbol("1", (1,)): derivative(F, (1,)).values,
        }
        md = ModelledDistribution(SP, grid512, Fraction(7, 5), jet)
        assert validate_md(model, md).ok
        system = md_to_paracontrolled(model, md, with_reports=False)
        assert rel_err(system.reconstruction_bracket, F.values) < 1e-12
        rf = reconstruct(model, md.coeffs, md.gamma)
        assert rel_err(rf.values, F.values) < 1e-12

    def test_report_leaves_its_inputs_alone(self, md_setup):
        model, _brackets, md = md_setup
        before = {s: v.copy() for s, v in md.coeffs.items()}
        pi_before = {n: v.copy() for n, v in model.pi.items()}
        first = reconstruction_report(model, md)
        for s, v in md.coeffs.items():
            assert np.array_equal(v, before[s])
        for n, v in model.pi.items():
            assert np.array_equal(v, pi_before[n])
        again = reconstruction_report(model, md)
        assert np.array_equal(first.block_norms, again.block_norms)


# -- the model's memo of md-recursion products ------------------------------------

MEMO_CASES = [("toy", Grid(1, 1024, np.pi)), ("bhz", Grid(1, 1024, np.pi)),
              ("toy2d", Grid(2, 64, np.pi))]
MEMO_IDS = ["toy-1024", "bhz-noncanonical-1024", "toy2d-64"]
# Pi-brackets md_to forms, and how many of them are operands of the others'
# recursions as well as of the reconstruction step
PI_OPERANDS = {"toy": (7, 4), "bhz": (4, 2), "toy2d": (5, 1)}


def _memo_structure(name):
    return structure(name, noncanonical=name == "bhz")


def _fresh_model(S, grid):
    """The same model every time, with an empty memo."""
    return build_random_model(S, grid, seed=20)[0]


def _d_mode_md(model, seed=100):
    """md_from (D mode) on the random core brackets of one seed."""
    brackets = random_md_brackets(model.structure, model.grid, GAMMA, seed)
    return md_from_paracontrolled(model, brackets, GAMMA, mode="d")


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _quotients(S):
    """sigma -> [(mu, mu/sigma)] for every sigma below GAMMA that has a
    quotient, in the order of its sigma-step."""
    from regpara.translation import _plus_quotients

    symbols = S.base_symbols(GAMMA)
    return {s: quots for s in symbols if (quots := list(_plus_quotients(S, symbols, s)))}


class TestMdProductMemo:
    """The model's memo of the md sigma-steps' sums (`Model.md_sum`)."""

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_outputs_equal_those_of_a_fresh_model(self, name, grid):
        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        md = _d_mode_md(model)
        system = md_to_paracontrolled(model, md)
        md2 = md_from_paracontrolled(model, dict(system.brackets), GAMMA, mode="general")
        assert model._md_sums
        want = md_to_paracontrolled(_fresh_model(S, grid), md)
        want2 = md_from_paracontrolled(_fresh_model(S, grid), dict(system.brackets), GAMMA,
                                       mode="general")
        assert system.brackets.keys() == want.brackets.keys()
        for s, v in want.brackets.items():
            assert _same_bits(system.brackets[s], v), s
        assert _same_bits(system.reconstruction_bracket, want.reconstruction_bracket)
        for have, need in zip(system.report.checks, want.report.checks, strict=True):
            assert have.name == need.name
            assert _same_bits(have.norm.block_norms, need.norm.block_norms), need.name
            assert have.norm.slope == need.norm.slope
        assert md2.coeffs.keys() == want2.coeffs.keys()
        for s, v in want2.coeffs.items():
            assert _same_bits(md2.coeffs[s], v), s

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_md_recursion_products_are_formed_once(self, name, grid, monkeypatch):
        """Across md_from (D mode), md_to and the general-mode rebuild of
        md_to's brackets, the sum of each sigma-step is formed once: md_from
        forms those of the core sigmas, md_to those of the polynomial-
        decorated ones, whose coefficients md_from took from the diagonal-
        derivative formula, and the rebuild none."""
        import regpara.models as models

        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        formed = []
        md_sum = models.Model.md_sum

        def tagged(self, sigma, coeffs, form):
            def tagged_form():
                formed.append(sigma)
                return form()
            return md_sum(self, sigma, coeffs, tagged_form)

        monkeypatch.setattr(models.Model, "md_sum", tagged)

        def stage(run):
            del formed[:]
            return run(), list(formed)

        md, by_from = stage(lambda: _d_mode_md(model))
        system, by_to = stage(lambda: md_to_paracontrolled(model, md, with_reports=False))
        _md2, by_general = stage(lambda: md_from_paracontrolled(
            model, dict(system.brackets), GAMMA, mode="general"))
        sigmas = _quotients(S)
        assert Counter(by_from) == Counter(s for s in sigmas if not any(s.poly))
        assert Counter(by_to) == Counter(s for s in sigmas if any(s.poly))
        assert by_from and by_general == []

    def test_a_changed_coefficient_gets_its_own_product(self):
        S, grid = _memo_structure("toy"), Grid(1, 1024, np.pi)
        model = _fresh_model(S, grid)
        md = _d_mode_md(model)
        first = md_to_paracontrolled(model, md, with_reports=False)
        # a multiplier of the recursion, held as a Field's (read-only) values
        mu = min((mu for quots in _quotients(S).values() for mu, _q in quots), key=str)
        coeffs = dict(md.coeffs)
        coeffs[mu] = Field(grid, 2.0 * md.coeffs[mu]).values
        changed = ModelledDistribution(S, grid, GAMMA, coeffs)
        got = md_to_paracontrolled(model, changed, with_reports=False)
        want = md_to_paracontrolled(_fresh_model(S, grid), changed, with_reports=False)
        moved = 0
        for s, v in want.brackets.items():
            assert _same_bits(got.brackets[s], v), s
            moved += not _same_bits(v, first.brackets[s])
        assert moved > 1   # mu's own bracket and one below it at least
        # the entries now hold the new coefficients, one per sigma; the old
        # md forms its own sums again
        assert len(model._md_sums) == len(_quotients(S))
        again = md_to_paracontrolled(model, md, with_reports=False)
        for s, v in first.brackets.items():
            assert _same_bits(again.brackets[s], v), s

    def test_writable_coefficients_are_never_kept(self):
        S, grid = _memo_structure("toy"), Grid(1, 1024, np.pi)
        md = _d_mode_md(_fresh_model(S, grid))
        writable = ModelledDistribution(S, grid, GAMMA,
                                        {s: v.copy() for s, v in md.coeffs.items()})
        model = _fresh_model(S, grid)
        first = md_to_paracontrolled(model, writable, with_reports=False)
        assert model._md_sums == {}
        for v in writable.coeffs.values():
            v *= 3.0
        got = md_to_paracontrolled(model, writable, with_reports=False)
        want = md_to_paracontrolled(_fresh_model(S, grid), writable, with_reports=False)
        for s, v in want.brackets.items():
            assert _same_bits(got.brackets[s], v), s
            assert not _same_bits(v, first.brackets[s]), s
        assert model._md_sums == {}

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_each_coefficient_is_transformed_once(self, name, grid, monkeypatch):
        """The general-mode rebuild of md_to's brackets and its
        structure-condition check transform each of its coefficients at most
        once."""
        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        seen = Counter()

        def recording(transform):
            def recorded(a, *args, **kwargs):
                seen[np.asarray(a).tobytes()] += 1
                return transform(a, *args, **kwargs)
            return recorded

        for fft in ("rfft", "rfftn"):   # the 1-D transform on 1-D grids
            monkeypatch.setattr(np.fft, fft, recording(getattr(np.fft, fft)))
        md = _d_mode_md(model)
        system = md_to_paracontrolled(model, md)
        seen.clear()
        md2 = md_from_paracontrolled(model, dict(system.brackets), GAMMA, mode="general")
        assert max(seen[v.tobytes()] for v in md2.coeffs.values()) <= 1

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_md_to_reports_equal_those_of_fresh_fields(self, name, grid):
        """md_to's reports, all taken on the interior box, equal, bit for
        bit, holder_norm of a fresh Field of each bracket under the boolean
        interior mask."""
        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        md = _d_mode_md(model)
        system = md_to_paracontrolled(model, md)
        mask = interior_mask(grid)
        for (s, vals), check in zip(system.brackets.items(), system.report.checks, strict=True):
            assert check.name == f"md_bracket {s}"
            want = holder_norm(Field(grid, vals), float(GAMMA - S.homog_base(s)), mask=mask)
            assert _same_bits(check.norm.block_norms, want.block_norms), s

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_each_diagonal_derivative_is_taken_once(self, name, grid, monkeypatch):
        """Over md_from (D mode), md_to, the general-mode rebuild and
        validate_model on one model, the spectral derivative of each
        (mono, k) that diag_derivative is asked for is taken once."""
        import regpara.models as models

        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        calls = []
        derivative = models.derivative

        def counted(f, k):
            calls.append(k)
            return derivative(f, k)

        monkeypatch.setattr(models, "derivative", counted)
        md = _d_mode_md(model)
        system = md_to_paracontrolled(model, md)
        md_from_paracontrolled(model, dict(system.brackets), GAMMA, mode="general")
        validate_model(model)
        assert len(calls) == len(model._diag) > 0

    def test_memo_holds_one_entry_per_sigma_with_a_quotient(self):
        S, grid = _memo_structure("toy"), Grid(1, 1024, np.pi)
        model = _fresh_model(S, grid)
        sigmas = _quotients(S)
        for seed in range(5):
            md = _d_mode_md(model, 200 + 10 * seed)
            system = md_to_paracontrolled(model, md, with_reports=False)
            md_from_paracontrolled(model, dict(system.brackets), GAMMA, mode="general")
            assert set(model._md_sums) <= set(sigmas)
            assert all(len(coeffs) == len(sigmas[s])
                       for s, (coeffs, _total) in model._md_sums.items())
        assert len(model._md_sums) == len(sigmas)

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_a_sigma_step_is_the_sum_of_its_products(self, name, grid):
        """Each bracket md_to forms, f_sigma minus one block sum, equals
        f_sigma minus the products P_{f_mu} <mu/sigma>^g of its sigma-step
        added one by one in order, to 1e-12 of the largest value."""
        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        md = _d_mode_md(model)
        system = md_to_paracontrolled(model, md, with_reports=False)
        ex = BracketExtractor(model, 0)
        steps = _quotients(S)
        for sigma, quots in steps.items():
            terms = [(md.coeff(mu), ex.g_bracket_vector(quot)) for mu, quot in quots]
            want = products_one_by_one(ex, md.coeff(sigma), terms)
            got = system.brackets[sigma]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), sigma
        assert steps and max(map(len, steps.values())) == (3 if name == "toy" else 1)


def _recorded_products(monkeypatch):
    """(made, steps): every product an extractor forms as a term of a block
    sum (`BracketExtractor.block_sum`), as (extractor, f, g, stacked
    inverse-transform rows made for it), and the terms of the sums that
    Model.md_sum formed, the sigma-steps (the recursions of their brackets
    run inside their draw).  A term is drawn after the rows of the one
    before it are formed, and its rows before the next is drawn.  f and g
    are kept, so their ids stay distinct."""
    import regpara.models as models
    from regpara.blocks import BlockDecomposition

    made, steps, rows, sums = [], [], [], []
    irfft = BlockDecomposition.irfft
    block_sum, md_sum = models.BracketExtractor.block_sum, models.Model.md_sum

    def counting(self, spec, size=None, out=None):
        if spec.ndim > self.grid.dim:   # a stack of rows, not a final transform
            rows.append(len(spec))
        return irfft(self, spec, size, out)

    def drawing(self, terms):
        mine = []
        sums.append(mine)

        def drawn():
            for c, u in terms:
                first = len(rows)
                yield c, u
                made.append((self, c, u, sum(rows[first:])))
                mine.append(made[-1])
        return block_sum(self, drawn())

    def tagged(self, sigma, coeffs, form):
        def tagged_form():
            first = len(sums)
            out = form()
            steps.extend(sums[first])   # the sum form() starts first is the step's
            return out
        return md_sum(self, sigma, coeffs, tagged_form)

    monkeypatch.setattr(BlockDecomposition, "irfft", counting)
    monkeypatch.setattr(models.BracketExtractor, "block_sum", drawing)
    monkeypatch.setattr(models.Model, "md_sum", tagged)
    return made, steps


def _rows_per_side(grid):
    from regpara.blocks import make_partition
    from regpara.paraproducts import _schedule

    groups, full = _schedule(make_partition(grid), False)
    return sum(len(syms) // 2 for _, syms in groups) + len(full)


class TestOperandRows:
    def test_md_from_transforms_each_quotient_bracket_once(self, monkeypatch):
        """md_from (D mode) on toy at n = 1024 forms 7 sigma-step products
        P_{f_mu} <mu/sigma>^g over only 3 distinct quotient brackets, and 2
        more in the recursions of two of them, whose operand is the third.
        Each bracket, held by the extractor, has its rows transformed once;
        each coefficient, held by no one, once per product."""
        S, grid = _memo_structure("toy"), Grid(1, 1024, np.pi)
        model = _fresh_model(S, grid)
        made, steps = _recorded_products(monkeypatch)
        _d_mode_md(model)
        brackets = {id(g) for _ex, _f, g, _rows in made}
        assert (len(steps), len({id(g) for _ex, _f, g, _rows in steps})) == (7, 3)
        assert (len(made), len(brackets)) == (9, 3)
        rows = sum(rows for *_, rows in made)
        assert rows == _rows_per_side(grid) * (len(made) + len(brackets))

    @pytest.mark.parametrize("name, grid", MEMO_CASES, ids=MEMO_IDS)
    def test_md_to_forms_each_pi_bracket_operand_side_once(self, name, grid, monkeypatch):
        """md_to's Pi-brackets come from a planned extractor whose plan counts
        the reconstruction step <f>^M = Rf - sum P_{f_sigma} <sigma>^M too:
        over the brackets' recursions and that step, the rows of each
        coefficient and bracket are transformed once, those of a bracket
        that is an operand of both kept from its first product to the step's."""
        S = _memo_structure(name)
        model = _fresh_model(S, grid)
        md = _d_mode_md(model)
        made, _steps = _recorded_products(monkeypatch)
        md_to_paracontrolled(model, md, with_reports=False)
        brackets = {id(b) for ex, *_ in made for b in ex._pi_memo.values()}
        pi = [(f, g, rows) for _ex, f, g, rows in made if id(g) in brackets]
        # the step's multipliers are md's coefficient arrays, the recursions' Fields
        step = {id(g) for f, g, _rows in pi if not isinstance(f, Field)}
        recursion = {id(g) for f, g, _rows in pi if isinstance(f, Field)}
        assert (len(brackets), len(recursion & step)) == PI_OPERANDS[name]
        assert step == brackets
        sides = {("f", id(f)) for f, _g, _rows in pi} | {("g", id(g)) for _f, g, _rows in pi}
        assert sum(rows for *_, rows in pi) == _rows_per_side(grid) * len(sides)


@pytest.mark.parametrize("varying_axis", [0, 1])
def test_two_point_g_report_probes_every_axis(varying_axis):
    """In d = 2 a g-bracket that varies along one axis only has g_{yx} = 0
    for y - x along the other; the slope along the varying axis must still
    be measured and reach its target."""
    S = structure("toy2d")
    grid, line = Grid(2, 64, np.pi), Grid(1, 64, np.pi)
    for seed in range(5):
        # the g-brackets of a d = 1 draw, constant along the other axis
        gb = {r: Field(grid, np.moveaxis(np.tile(f.values, (grid.n, 1)), 1, varying_axis))
              for r, f in random_brackets(S, line, seed)[0].items()}
        model = Model(S, grid, build_g(S, grid, gb), {})
        for r in gb:
            alpha = float(S.plus_gens[r])
            slope, pts, _ = two_point_g_report(model, PlusMonomial.of_gen(r, 2))
            assert all(q > 0 for _h, q in pts)
            assert slope is not None and slope >= alpha - SLOPE_TOL, (seed, r, slope)


def test_slope_check_without_scales_is_named(toy_structure, grid256):
    """The all-zero modelled distribution leaves no scale to fit: every
    two-point check says so by name, and the report still passes."""
    model, _gb, _pib = build_random_model(toy_structure, grid256)
    symbols = toy_structure.base_symbols(GAMMA)
    md = ModelledDistribution(toy_structure, grid256, GAMMA, {s: np.zeros(grid256.shape) for s in symbols})
    rep = validate_md(model, md)
    assert rep.ok
    assert len(rep.checks) == len(symbols)
    for check in rep.checks:
        assert check.line().startswith(f"{check.name} insufficient-scales scales=0 target=")
    assert rep.lines()[-1] == "overall pass"


def _rolled_two_point_fit(grid, diff):
    """The two-point fit as the full-grid code formed it: the field rolled by
    the separation, its interior pairs picked by a boolean mask."""
    base = interior_mask(grid)
    fits = []
    for axis in range(grid.dim):
        hs, qs = [], []
        for steps in dyadic_separations(grid):
            pairs = base & np.roll(base, -steps, axis=axis)
            hs.append(steps * grid.step)
            qs.append(float(np.quantile(np.abs(diff(steps, axis)[pairs]), 0.5)))
        fits.append((log_scale_fit(np.log2(hs), qs)[0], list(zip(hs, qs))))
    return min(fits, key=lambda f: (f[0] is None, f[0] or 0.0))


@pytest.mark.parametrize("name, grid", [
    ("toy", Grid(1, 256, np.pi)), ("bhz", Grid(1, 256, np.pi)), ("toy2d", Grid(2, 64, np.pi)),
], ids=["toy", "bhz", "toy2d"])
def test_two_point_boxes_give_the_rolled_medians(name, grid):
    """Differences taken on slices of the interior box are the same multiset
    as the rolled, masked ones, so every median and slope is identical."""
    S = structure(name, noncanonical=name == "bhz")
    model, _gb, _pib = build_random_model(S, grid, seed=3)
    for gen in sorted(model.g.values):
        mono = PlusMonomial.of_gen(gen, S.dim)
        terms = [(float(c), model.g_field(a), model.g_inv_field(b))
                 for (a, b), c in S.delta_plus(mono).sorted_items()]

        def g_diff(steps, axis):
            return sum(c * np.roll(ga, -steps, axis=axis) * gb for c, ga, gb in terms)

        assert two_point_g_report(model, mono)[:2] == _rolled_two_point_fit(grid, g_diff)
    md = _d_mode_md(model, 50)
    symbols = S.base_symbols(GAMMA)
    want = []
    for tau in symbols:
        terms = [(float(c * c2), model.g_field(a), model.g_inv_field(b), md.coeff(mu))
                 for mu in symbols for mono, c in S.quotient(mu, tau).sorted_items()
                 for (a, b), c2 in S.delta_plus(mono).sorted_items()]

        def md_diff(steps, axis):
            acc = np.roll(md.coeff(tau), -steps, axis=axis)
            for c, ga, gb, fmu in terms:
                acc -= c * np.roll(ga, -steps, axis=axis) * gb * fmu
            return acc

        want.append(_rolled_two_point_fit(grid, md_diff)[0])
    assert [c.value for c in validate_md(model, md).checks] == want


class TestAuxiliaryStructure:
    def test_cross_checks_pass_on_both_roots(self, bhz_g_model, bhz_structure):
        rep = bhz_structure.check_assumptions()
        for root in rep.c_generators:
            crep = lambda_cross_check(bhz_g_model, root)
            assert crep.ok, "\n".join(c.line() for c in crep.checks if not c.passed)

    @staticmethod
    def _symbols(S, built, root):
        """The auxiliary symbols of lambda_cross_check at root."""
        return [mo for mo in S.plus_monomials(S.plus_gens[root])
                if not mo.is_poly and all(n in built for n, _ in mo.gens)
                ] + [PlusMonomial.of_gen(root, S.dim)]

    def test_coassociativity_defect_detects_a_broken_table(self, bhz_g_model):
        S, built = bhz_g_model.structure, bhz_g_model.g.values
        for root in sorted(built):
            assert not _delta_aux_coassoc_defect(S, self._symbols(S, built, root))
        # a wrong diagonal coefficient on the generator with middle terms
        top = max(built, key=lambda n: (len(S.dplus_table[n]), S.plus_gens[n]))
        assert len(S.dplus_table[top]) > 2
        gen = PlusMonomial.of_gen(top, S.dim)
        broken = perturbed_structure(S, "dplus_table", top, (gen, PlusMonomial.unit(S.dim)), 2)
        assert _delta_aux_coassoc_defect(broken, self._symbols(broken, built, top))

    def test_requires_m_above_homogeneity(self, bhz_g_model, bhz_structure):
        rep = bhz_structure.check_assumptions()
        root = rep.c_generators[-1]
        with pytest.raises(ValueError):
            lambda_cross_check(bhz_g_model, root, m=1)


class TestContinuityProbe:
    def test_bracket_perturbations_scale_linearly(self, toy_structure, grid512):
        # perturb one input bracket at two magnitudes; downstream field
        # changes must scale with stable ratio (the homeomorphism picture)
        S = toy_structure
        model, gb, pib = build_random_model(S, grid512, seed=31)
        victim = S.check_assumptions().c_generators[0]
        noise = synthesize(float(S.plus_gens[victim]), 777, grid512)
        from regpara.models import build_g, build_pi

        responses = []
        for delta in (1e-3, 1e-2):
            gb2 = dict(gb)
            gb2[victim] = gb[victim] + delta * noise
            g2 = build_g(S, grid512, gb2)
            model2 = build_pi(S, grid512, g2, pib)
            change = 0.0
            for name in model.pi:
                change = max(
                    change,
                    float(np.max(np.abs(model2.pi[name] - model.pi[name]))),
                )
            for name in model.g.values:
                change = max(
                    change,
                    float(np.max(np.abs(model2.g.values[name] - model.g.values[name]))),
                )
            responses.append(change / delta)
        lo, hi = sorted(responses)
        assert hi / lo < 2.0
        assert hi > 0


# -- sampled identity checks against their per-sample loops ----------------------


def _scalar_two_point(model, v, ia, ib):
    if isinstance(v, PlusMonomial):
        v = FreeVector.single(v)
    acc = 0.0
    for mono, c0 in v.sorted_items():
        for (left, right), c in model.structure.delta_plus(mono).sorted_items():
            acc += float(c0 * c) * model.g_field(left)[ia] * model.g_inv_field(right)[ib]
    return acc


def _scalar_chen(model, rng, samples):
    S, grid = model.structure, model.grid
    idxs = rng.integers(0, grid.n, size=(samples, 3, grid.dim))
    worst = 0.0
    for name in sorted(model.g.values):
        mono = PlusMonomial.of_gen(name, S.dim)
        scale = max(np.max(np.abs(model.g_field(mono))), 1.0)
        for row in idxs:
            ix, iy, iz = (tuple(r) for r in row)
            acc = 0.0
            for (left, right), c in S.delta_plus(mono).sorted_items():
                acc += (float(c) * _scalar_two_point(model, left, iz, iy)
                        * _scalar_two_point(model, right, iy, ix))
            direct = _scalar_two_point(model, mono, iz, ix)
            worst = max(worst, abs(acc - direct) / scale)
    return worst


def _scalar_lemma_gyx_f(model, rng, samples):
    S, grid, g, g_inv = model.structure, model.grid, model.g, model.g_inv
    pairs = rng.integers(0, grid.n, size=(samples, 2, grid.dim))
    worst = 0.0
    for name in sorted(model.g.values):
        mono = PlusMonomial.of_gen(name, S.dim)
        h = S.plus_gens[name]
        for k, dk in _d_symbol_vectors(S, mono):
            max_l = int(h) - mi_abs(k) if h == int(h) else int(math.floor(h - mi_abs(k)))
            f_fields = {}
            for l in mi_range(S.dim, max(max_l, 0)):
                dkl = S.d_op(tuple(a + b for a, b in zip(k, l)), mono)
                f_fields[l] = (np.asarray(f_character_values(g, g_inv, dkl), dtype=float)
                               if dkl else np.zeros(grid.shape))
            scale = max(float(np.max(np.abs(np.asarray(g(dk), dtype=float)))), 1.0)
            for row in pairs:
                iy, ix = tuple(row[0]), tuple(row[1])
                lhs = _scalar_two_point(model, dk, iy, ix)
                rhs = 0.0
                for (left, right), c in S.delta_plus(mono).sorted_items():
                    dk_left = S.d_op(k, left)
                    if left.is_poly or not dk_left:
                        continue
                    f_y = np.asarray(f_character_values(g, g_inv, dk_left), dtype=float)
                    rhs += float(c) * _scalar_two_point(model, right, iy, ix) * f_y[iy]
                diff = np.array([g.point[i][iy] - g.point[i][ix] for i in range(S.dim)])
                for l, f_x in f_fields.items():
                    coef = 1.0
                    for d_, li in zip(diff, l):
                        coef *= d_**li
                    rhs -= coef / mi_factorial(l) * f_x[ix]
                worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@pytest.mark.parametrize("which", ["toy_model", "bhz_model"])
def test_sampled_residuals_equal_their_per_sample_loops(which, request):
    """Each field is read at all samples at once, but every sample is still
    summed in the loop's order, so the residuals agree to the bit."""
    model, _gb, _pib = request.getfixturevalue(which)
    assert chen_residual(model, np.random.default_rng(5), 40) == _scalar_chen(
        model, np.random.default_rng(5), 40
    )
    assert lemma_gyx_f_residual(model, np.random.default_rng(6), 30) == _scalar_lemma_gyx_f(
        model, np.random.default_rng(6), 30
    )


@pytest.mark.parametrize("name", ["toy", "bhz"])
def test_validators_evaluate_each_field_once(name, monkeypatch):
    """chen_residual, lemma_gyx_f_residual, validate_md, validate_model and
    lambda_cross_check each read the g and g^{-1} fields through one held
    copy of the model a call, so Model.g_field and Model.g_inv_field are
    called at most once per monomial a call.  validate_model's checks read
    6 distinct fields on toy and 11 on bhz --noncanonical (44 and 64
    evaluations at n = 512 when each check read its own)."""
    S = structure(name, noncanonical=name == "bhz")
    model = build_random_model(S, Grid(1, 256, np.pi), seed=3)[0]
    md = _d_mode_md(model)
    root = min(S.plus_gens, key=lambda n: (S.plus_gens[n], n))
    calls = []
    for method in ("g_field", "g_inv_field"):
        def counted(self, v, _method=method, _original=getattr(Model, method)):
            calls.append((_method, v))
            return _original(self, v)
        monkeypatch.setattr(Model, method, counted)
    for run in (lambda: chen_residual(model, np.random.default_rng(5), 40),
                lambda: lemma_gyx_f_residual(model, np.random.default_rng(6), 30),
                lambda: validate_md(model, md),
                lambda: lambda_cross_check(model, root),
                lambda: validate_model(model)):
        del calls[:]
        run()
        assert calls and len(calls) == len(set(calls)), Counter(calls).most_common(1)
    assert len(calls) == {"toy": 6, "bhz": 11}[name]
