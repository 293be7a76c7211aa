"""Modelled distributions, paracontrolled systems, model validation, and the
auxiliary negative-homogeneity cross-check structure.

md <-> paracontrolled runs the recursions of `models.BracketExtractor` over
the quotients mu/sigma in span(B+ \\ B_X^+): md_to_paracontrolled takes
sign -1, <f_sigma>^g = f_sigma - sum_{sigma < mu} P_{f_mu} <mu/sigma>^g and
<f>^M = Rf - sum_sigma P_{f_sigma} <sigma>^M; md_from_paracontrolled takes
sign +1, f_sigma = <f_sigma>^g + the same sum.  Each is one block sum: a
sigma-step's sum T_sigma (`_sigma_step`), which `Model.md_sum` keeps per
sigma, and <f>^M's (`BracketExtractor.pi_step`).

Every sum of g (x) g^{-1} over Delta+ here goes through
`ConcreteRegularityStructure.delta_plus_terms`, in one order, which the
bit-identity tests of the sampled and two-point checks pin.
"""
from __future__ import annotations

import math
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
    mi_below_abs,
    mi_factorial,
    mi_range,
    mi_zero,
    term_key,
)
from .blocks import derivative, fourier_multiplier, j_operator_pair, make_partition
from .characters import (
    f_character_values,
)
from .grid import Field, Grid
from .norms import (
    SLOPE_TOL,
    NormReport,
    Report,
    SeparableFamily,
    d_family_report,
    dyadic_separations,
    holder_norm,
    interior_box,
    interior_mask,
    log_scale_fit,
    scale_stats,
    synthesize,
)
from .models import (
    BracketExtractor,
    Model,
    diag_derivative,
    diag_two_point,
    reconstruct,
    reconstruct_family,
    reconstruction_family,
)

REL_TOL = 1e-8
# Relative residual above which general-mode md_from_paracontrolled rejects
# brackets for violating the structure condition.
STRUCTURE_TOL = 1e-6


# -- two-point slope estimation -------------------------------------------------

def _two_point_fit(grid: Grid, diff) -> tuple[float | None, list, int]:
    """Slope, (h, q) series and number of fitted scales of the worst axis.
    Per axis, q is the median of |diff(ys, xs)| over the pairs
    (x, x + h e_axis) lying entirely in the interior, at each dyadic
    separation h, and the slope is fitted on log2 q against log2 h;
    diff(ys, xs) is the two-point field on those pairs, y taken on the index
    box ys and x on xs.  The interior is a box, so the pairs of one
    separation are one too, and separations stay below the collar width, so
    no pair wraps.  The smallest fitted slope decides; an axis without a
    slope (the field does not vary along it) does not, and if no axis has
    one, axis 0 is returned."""
    box = interior_box(grid)
    fits = []
    for axis in range(grid.dim):
        hs, qs = [], []
        for steps in dyadic_separations(grid):
            xs = tuple(slice(box.start, box.stop - steps) if a == axis else box for a in range(grid.dim))
            ys = tuple(slice(box.start + steps, box.stop) if a == axis else box for a in range(grid.dim))
            hs.append(steps * grid.step)
            qs.append(float(scale_stats(diff(ys, xs), sup=False)[1]))
        slope, _, used = log_scale_fit(np.log2(hs), qs)
        fits.append((slope, list(zip(hs, qs)), len(used)))
    return min(fits, key=lambda f: (f[0] is None, f[0] or 0.0))


def two_point_g_report(model: Model, v) -> tuple[float | None, list, int]:
    """Fitted slope of |g_{yx}(v)| against dyadic separations y - x = h
    along each axis; the worst axis decides (see _two_point_fit)."""
    held = model.holding_fields()
    return _two_point_fit(model.grid, lambda ys, xs: _two_point(held, v, ys, xs))


def _two_point(model: Model, v, ia, ib):
    """g_{yx}(v) at indices (ia, ib), or at index boxes; v a monomial or
    FreeVector.  Each sample is summed in the same order as a scalar loop
    would.  Callers pass a `Model.holding_fields` copy, which evaluates each
    field once however many samples and terms read it."""
    acc = 0.0
    for c, left, right in model.structure.delta_plus_terms(v):
        acc = acc + float(c) * model.g_field(left)[ia] * model.g_inv_field(right)[ib]
    return acc


def _sample_index(idxs: np.ndarray, slot: int) -> tuple:
    """Index arrays of slot `slot` of samples shaped (samples, slots, dim)."""
    return tuple(idxs[:, slot, a] for a in range(idxs.shape[2]))


def chen_residual(model: Model, rng: np.random.Generator, samples: int = 100) -> float:
    """Relative residual of g_{zy} * g_{yx} = g_{zx} over random triples."""
    S, grid = model.structure, model.grid
    gens = sorted(model.g.values)
    if not gens:
        return 0.0
    idxs = rng.integers(0, grid.n, size=(samples, 3, grid.dim))
    ix, iy, iz = (_sample_index(idxs, slot) for slot in range(3))
    held = model.holding_fields()
    worst = 0.0
    for name in gens:
        mono = PlusMonomial.of_gen(name, S.dim)
        scale = max(np.max(np.abs(held.g_field(mono))), 1.0)
        # chen: g_{zx} = sum over Delta+ of g_{zy}(left) g_{yx}(right)
        acc = 0.0
        for c, left, right in S.delta_plus_terms(mono):
            gzy = _two_point(held, left, iz, iy)
            gyx = _two_point(held, right, iy, ix)
            acc = acc + float(c) * gzy * gyx
        direct = _two_point(held, mono, iz, ix)
        worst = max(worst, np.max(np.abs(acc - direct) / scale))
    return worst


# -- model validation ------------------------------------------------------------

def validate_model(model: Model, tol_slope: float = SLOPE_TOL,
                   seed: int = 0, samples: int = 50) -> Report:
    """Conditions (a)-(d) of the model definition plus the character-identity
    cross-checks; (a) and (c) are exact, (b) and (d) are empirical slopes.
    Every check reads its fields from one `Model.holding_fields` copy.  The
    (d) families are paired last, once that copy is let go, and are still
    listed before the identities."""
    S, grid = model.structure, model.grid
    rep = Report(f"model check: {S.name}")
    rng = np.random.default_rng(seed)
    held = model.holding_fields()

    # (a) g(X^k) = x^k, g(1+) = 1 (exact)
    ok = True
    for k in mi_range(S.dim, 2):
        want = grid.poly(k)
        got = np.broadcast_to(np.asarray(model.g(PlusMonomial.of_poly(k)), dtype=float), grid.shape)
        ok &= np.array_equal(want, got)
    rep.add("a:polynomial-character", ok)

    # (c) Pi(X_^k sigma) = x^k Pi(sigma), Pi(1) = 1 (exact)
    ok = bool(np.array_equal(model.pi["1"], np.ones(grid.shape)))
    for name in sorted(model.pi):
        for k in mi_range(S.dim, 1):
            sym = BaseSymbol(name, k)
            ok &= np.array_equal(model.pi_symbol(sym), grid.poly(k) * model.pi[name])
    rep.add("c:polynomial-action", ok)

    # (b) two-point slopes on the plus-generators
    for name in sorted(model.g.values, key=lambda n: (S.plus_gens[n], n)):
        h = float(S.plus_gens[name])
        mono = PlusMonomial.of_gen(name, S.dim)
        rep.add("b:finite:" + name, bool(np.all(np.isfinite(held.g_field(mono)))))
        slope, _, scales = two_point_g_report(held, mono)
        rep.add_slope("b:two-point:" + name, slope, h, tol_slope, scales=scales)

    # Chen relation on random triples, lemma identities (exact rearrangements)
    identities = [
        ("chen-relation", chen_residual(held, rng, samples=min(samples, 100)), REL_TOL),
        ("identity:g_x-and-f_x", lemma_gx_fx_residual(held), 1e-6),
        ("identity:g_yx-and-f", lemma_gyx_f_residual(held, rng, samples=samples), 1e-6),
        ("identity:diagonal-derivative", third_formula_residual(held), 1e-5),
    ]

    # (d) D-family slopes on the base generators, their Pi fields paired once
    names = sorted((n for n in model.pi if n != "1"), key=lambda n: (S.base_gens[n], n))
    hs = [float(S.base_gens[name]) for name in names]
    fams = [held.pi_recentered_family(BaseSymbol(name, mi_zero(S.dim))) for name in names]
    del held   # its fields are not held through the pairings
    for name, h, d_rep in zip(names, hs, d_family_report(fams, hs, mask=interior_mask(grid))):
        rep.add_norm("d:family:" + name, d_rep, h, tol_slope)

    for name, res, tol in identities:
        rep.add(name, res <= tol, res, 0.0, tol)
    return rep


def _d_symbol_vectors(S: ConcreteRegularityStructure, mono: PlusMonomial):
    """Nonzero D^k mono for all admissible k, as (k, FreeVector) pairs."""
    return [(k, dk) for k in mi_below_abs(S.dim, S.homog_plus(mono)) if (dk := S.d_op(k, mono))]


def lemma_gx_fx_residual(model: Model) -> float:
    """max relative residual of g_x(D^k tau) = sum_{sigma <= tau, sigma not
    poly} g_x(tau/sigma) f_x(D^k sigma) over built generators."""
    S = model.structure
    g, g_inv = model.g, model.g_inv
    worst = 0.0
    for name in sorted(model.g.values):
        mono = PlusMonomial.of_gen(name, S.dim)
        for k, dk in _d_symbol_vectors(S, mono):
            lhs = np.asarray(g(dk), dtype=float)
            rhs = np.zeros(model.grid.shape)
            for c, left, right in S.delta_plus_terms(mono, left_poly=False):
                dk_left = S.d_op(k, left)
                if not dk_left:
                    continue
                f_val = np.asarray(
                    f_character_values(g, g_inv, dk_left), dtype=float
                )
                rhs += float(c) * model.g_field(right) * f_val
            scale = max(float(np.max(np.abs(lhs))), 1.0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def lemma_gyx_f_residual(model: Model, rng: np.random.Generator, samples: int = 50) -> float:
    """Residual of the two-point identity g_{yx}(D^k tau) =
    sum g_{yx}(tau/sigma) f_y(D^k sigma) - sum_l (y-x)^l / l! f_x(D^{k+l} tau)."""
    S, grid = model.structure, model.grid
    g, g_inv = model.g, model.g_inv
    worst = 0.0
    pairs = rng.integers(0, grid.n, size=(samples, 2, grid.dim))
    iy, ix = _sample_index(pairs, 0), _sample_index(pairs, 1)
    diff = [model.g.point[i][iy] - model.g.point[i][ix] for i in range(S.dim)]
    held = model.holding_fields()
    for name in sorted(model.g.values):
        mono = PlusMonomial.of_gen(name, S.dim)
        h = S.plus_gens[name]
        for k, dk in _d_symbol_vectors(S, mono):
            f_fields = {}
            # |l| <= h - |k|, inclusive at integer h
            for l in mi_range(S.dim, math.floor(h - mi_abs(k))):
                dkl = S.d_op(tuple(a + b for a, b in zip(k, l)), mono)
                f_fields[l] = np.asarray(
                    f_character_values(g, g_inv, dkl), dtype=float
                ) if dkl else np.zeros(grid.shape)
            sigma_data = []
            for c, left, right in S.delta_plus_terms(mono, left_poly=False):
                dk_left = S.d_op(k, left)
                if not dk_left:
                    continue
                sigma_data.append(
                    (float(c), left, right,
                     np.asarray(f_character_values(g, g_inv, dk_left), dtype=float))
                )
            scale = max(float(np.max(np.abs(np.asarray(g(dk), dtype=float)))), 1.0)
            lhs = _two_point(held, dk, iy, ix)
            rhs = 0.0
            for c, left, right, f_y in sigma_data:
                gyx = _two_point(held, right, iy, ix)
                rhs = rhs + c * gyx * f_y[iy]
            for l, f_x in f_fields.items():
                coef = 1.0
                for d_, li in zip(diff, l):
                    coef = coef * d_**li
                rhs = rhs - coef / mi_factorial(l) * f_x[ix]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def third_formula_residual(model: Model) -> float:
    """Residual of f_x(D^k tau) = d_y^k { sum_{sigma<=tau, sigma not poly}
    g_x^{-1}(tau/sigma) g_y(sigma) } |_{y=x} over the interior."""
    S, grid = model.structure, model.grid
    g, g_inv = model.g, model.g_inv
    mask = interior_mask(grid)
    worst = 0.0
    for name in sorted(model.g.values):
        mono = PlusMonomial.of_gen(name, S.dim)
        for k, dk in _d_symbol_vectors(S, mono):
            lhs = np.asarray(f_character_values(g, g_inv, dk), dtype=float)
            lhs = np.broadcast_to(lhs, grid.shape)
            rhs = np.zeros(grid.shape)
            for c, left, right in S.delta_plus_terms(mono, left_poly=False):
                rhs += float(c) * model.g_inv_field(right) * diag_derivative(model, left, k)
            scale = max(float(np.max(np.abs(lhs[mask]))), 1.0)
            worst = max(worst, float(np.max(np.abs((lhs - rhs)[mask]))) / scale)
    return worst


# -- modelled distributions --------------------------------------------------------

@dataclass
class ModelledDistribution:
    """T-valued function: coefficients on basis symbols of homogeneity < gamma."""

    structure: ConcreteRegularityStructure
    grid: Grid
    gamma: Fraction
    coeffs: dict[BaseSymbol, np.ndarray]

    def coeff(self, sym: BaseSymbol) -> np.ndarray:
        vals = self.coeffs.get(sym)
        return np.zeros(self.grid.shape) if vals is None else vals


@dataclass
class ParacontrolledSystem:
    """Bracket coordinates of a modelled distribution: <f_sigma>^g per symbol,
    plus the reconstruction bracket <f>^M."""

    structure: ConcreteRegularityStructure
    grid: Grid
    gamma: Fraction
    brackets: dict[BaseSymbol, np.ndarray]
    reconstruction_bracket: np.ndarray | None = None
    report: Report | None = None   # `md_bracket <sigma>` checks


def _quotient_in_plus_span(S: ConcreteRegularityStructure, quot: FreeVector) -> bool:
    """True if the quotient lies in span(B+ \\ B_X^+); False if in T_X^+.
    Mixed quotients violate assumption (B)."""
    kinds = {mono.is_poly for mono, _ in quot.items()}
    if len(kinds) > 1:
        raise ValueError(f"quotient {quot} mixes T_X^+ and span(B+ - B_X^+): assumption (B) fails")
    return kinds == {False}


def _plus_quotients(S: ConcreteRegularityStructure, symbols, sigma: BaseSymbol):
    """(mu, mu/sigma) for every mu != sigma among symbols whose quotient is
    nonzero and lies in span(B+ \\ B_X^+)."""
    for mu in symbols:
        if mu == sigma:
            continue
        quot = S.quotient(mu, sigma)
        if quot and _quotient_in_plus_span(S, quot):
            yield mu, quot


def _sigma_step(model: Model, ex: BracketExtractor, symbols, sigma: BaseSymbol,
                start, coeff, sign: int) -> np.ndarray:
    """start + sign * T_sigma, T_sigma = sum_{sigma < mu} P_{f_mu} <mu/sigma>^g
    over the quotients of sigma, f_mu = coeff(mu) a Field or an array, one
    term (c, f_mu, <mono>^g) per term c mono of mu/sigma.  Every f_mu is
    drawn before the step starts, so no other sigma-step runs inside its
    draw; T_sigma is one block sum (`BracketExtractor.block_sum`) and comes
    from `Model.md_sum`, so md_from_paracontrolled and md_to_paracontrolled
    form it once per model and coefficients.  Each <mono>^g is formed only
    with it, and ex, which has no plan, holds its rows for the stage."""
    quotients = list(_plus_quotients(model.structure, symbols, sigma))
    fs = [coeff(mu) for mu, _quot in quotients]
    total = None
    if fs:
        arrays = tuple(f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
                       for f in fs)
        total = model.md_sum(sigma, arrays, lambda: ex.block_sum(
            (c, f, ex.g_bracket(mono)) for f, (_mu, quot) in zip(fs, quotients)
            for mono, c in quot.sorted_items()))
    return ex.add(start, total, sign)


def md_to_paracontrolled(model: Model, md: ModelledDistribution,
                         with_reports: bool = True,
                         tol_slope: float = SLOPE_TOL) -> ParacontrolledSystem:
    """Paracontrolled representation of a modelled distribution:
    <f_sigma>^g = f_sigma - sum_{sigma < mu} P_{f_mu} <mu/sigma>^g
    (descending homogeneity), and <f>^M = Rf - sum_sigma P_{f_sigma} <sigma>^M.
    With reports, `report` checks the Hölder slope of each <f_sigma>^g on the
    interior box against gamma - |sigma| within tol_slope, the NormReport
    kept on the check.  The coefficients are read as md.coeff arrays; a
    sigma-step's sum that md_from formed from the same arrays is served by
    `Model.md_sum`."""
    S, grid = model.structure, model.grid
    gamma = md.gamma
    ex = BracketExtractor(model, 0)
    symbols = S.base_symbols(gamma)
    order = sorted(symbols, key=lambda s: (S.homog_base(s), term_key(s)), reverse=True)
    out: dict[BaseSymbol, np.ndarray] = {}
    for sigma in order:
        out[sigma] = _sigma_step(model, ex, symbols, sigma, md.coeff(sigma), md.coeff, sign=-1)
    rf = reconstruct(model, md.coeffs, gamma)
    # the Pi-brackets come from a planned extractor of their own, whose plan
    # counts this step's products of them too; the sigma-steps' extractor,
    # with the brackets it holds, goes first
    ex = BracketExtractor(model, 0)
    rec = ex.pi_step(rf, {s: md.coeff(s) for s in symbols if not s.is_poly})
    system = ParacontrolledSystem(S, grid, gamma, out, rec)
    if with_reports:
        box = (interior_box(grid),) * grid.dim   # the interior, read as views
        system.report = Report(f"paracontrolled brackets gamma={gamma}")
        for sigma, vals in out.items():
            target = float(gamma - S.homog_base(sigma))
            system.report.add_norm(f"md_bracket {sigma}",
                                   holder_norm(Field(grid, vals), target, mask=box),
                                   target, tol_slope)
    return system


class StructureConditionError(ValueError):
    def __init__(self, sym, k, residual, tol):
        self.sym, self.k, self.residual = sym, k, residual
        super().__init__(
            f"structure condition fails at tau={sym}, k={k}: residual {residual:.3e} > {tol:.3e}"
        )


def random_md_brackets(structure: ConcreteRegularityStructure, grid: Grid, gamma: Fraction,
                       seed: int) -> dict[BaseSymbol, np.ndarray]:
    """(D)-mode brackets on every md coordinate below gamma: core i
    synthesized at gamma - |core| with seed + i."""
    return {s: synthesize(float(gamma - structure.homog_base(s)), seed + i, grid).values
            for i, s in enumerate(structure.md_coordinates(gamma))}


def md_from_paracontrolled(model: Model, brackets: dict[BaseSymbol, np.ndarray],
                           gamma, mode: str = "auto") -> ModelledDistribution:
    """Modelled distribution from bracket data.

    general mode: brackets indexed by all of B below gamma; coefficients by
    the descending bracket recursion; the structure condition is verified and
    a residual above STRUCTURE_TOL raises StructureConditionError carrying
    the worst (tau, k).

    (D) mode: brackets indexed by B. only (md_coordinates); polynomial-decorated
    coefficients are defined directly by the diagonal-derivative formula (with
    the 1/k! normalisation forced by D^k F_tau = k! F_{X^k tau}).  A key
    missing, or outside the mode's keys, raises ValueError.
    """
    S, grid = model.structure, model.grid
    gamma = Fraction(gamma)
    symbols = S.base_symbols(gamma)
    cores = S.md_coordinates(gamma)
    if mode == "auto":
        core_only = all(s in cores for s in brackets)
        mode = "d" if core_only and S.check_assumptions().d_ok else "general"
    check_coordinates("md", brackets, symbols if mode == "general" else cores)
    ex = BracketExtractor(model, 0)
    coeffs: dict[BaseSymbol, Field] = {}   # each transformed once

    def bracket_recursion(sigma: BaseSymbol) -> np.ndarray:
        return _sigma_step(model, ex, symbols, sigma, brackets[sigma], compute, sign=+1)

    def derivative_formula(sigma: BaseSymbol) -> np.ndarray:
        # EqSimpleStructureCondition with the 1/k! normalisation
        core = BaseSymbol(sigma.core, mi_zero(S.dim))
        k = sigma.poly
        vals = _md_diagonal_derivative(model, S, symbols, compute(core),
                                       lambda s: compute(s).values, core, k, gamma)
        return vals / mi_factorial(k)

    computing: set[BaseSymbol] = set()

    def compute(sigma: BaseSymbol) -> Field:
        if sigma in coeffs:
            return coeffs[sigma]
        if sigma in computing:
            raise RuntimeError(f"cyclic dependency at {sigma}")
        computing.add(sigma)
        if mode == "general" or not any(sigma.poly):
            vals = bracket_recursion(sigma)
        else:
            vals = derivative_formula(sigma)
        computing.discard(sigma)
        coeffs[sigma] = Field.adopt(grid, vals)
        return coeffs[sigma]

    for s in symbols:
        compute(s)
    # compute refers to itself through its closure; unbinding it frees the
    # extractor now instead of at a collection
    del compute
    md = ModelledDistribution(S, grid, gamma, {s: f.values for s, f in coeffs.items()})
    if mode == "general":
        _check_structure_condition(model, md)
    return md


def _md_diagonal_derivative(model, S, symbols, f_tau: Field, coeff_of, tau: BaseSymbol, k,
                            gamma) -> np.ndarray:
    """d_y^k { f_tau(y) - sum_{tau<mu, mu/tau not in T_X, |mu/tau|<=|k|}
    g_{yx}(mu/tau) f_mu(x) } |_{y=x}, all derivatives spectral; f_tau is a
    Field, so its spectrum is taken once for every k, and f_mu = coeff_of(mu)."""
    vals = derivative(f_tau, k).values.copy()
    for mu, quot in _plus_quotients(S, symbols, tau):
        if S.homog_base(mu) - S.homog_base(tau) <= mi_abs(k):
            vals -= diag_two_point(model, quot, k) * coeff_of(mu)
    return vals


def _check_structure_condition(model: Model, md: ModelledDistribution) -> None:
    S, grid = model.structure, md.grid
    gamma = md.gamma
    symbols = S.base_symbols(gamma)
    mask = interior_mask(grid)
    worst = None
    for tau in symbols:
        # one Field per tau, its spectrum taken once for every k
        f_tau = Field(grid, md.coeff(tau))
        for k in mi_below_abs(S.dim, gamma - S.homog_base(tau)):
            if not any(k):
                continue
            lhs = _md_diagonal_derivative(model, S, symbols, f_tau, md.coeff, tau, k, gamma)
            rhs = np.zeros(grid.shape)
            for mu in symbols:
                quot = S.quotient(mu, tau)
                if not quot or _quotient_in_plus_span(S, quot):
                    continue
                c = quot.coeff(PlusMonomial.of_poly(k)) * mi_factorial(k)
                if c:
                    rhs += float(c) * md.coeff(mu)
            scale = max(float(np.max(np.abs(md.coeff(tau)))), 1.0)
            res = float(np.max(np.abs((lhs - rhs)[mask]))) / scale
            if worst is None or res > worst[2]:
                worst = (tau, k, res)
    if worst is not None and worst[2] > STRUCTURE_TOL:
        raise StructureConditionError(worst[0], worst[1], worst[2], STRUCTURE_TOL)


def validate_md(model: Model, md: ModelledDistribution,
                tol_slope: float = SLOPE_TOL) -> Report:
    """Two-point checks <tau', f(y) - g_hat_{yx} f(x)> ~ |y-x|^{gamma-|tau|}."""
    S, grid = model.structure, model.grid
    rep = Report(f"modelled distribution gamma={md.gamma}")
    symbols = S.base_symbols(md.gamma)
    held = model.holding_fields()
    for tau in symbols:
        target = float(md.gamma - S.homog_base(tau))
        terms = [(float(c), held.g_field(a), held.g_inv_field(b), md.coeff(mu))
                 for mu in symbols for c, a, b in S.delta_plus_terms(S.quotient(mu, tau))]

        def diff(ys, xs):
            acc = md.coeff(tau)[ys].copy()
            for c, ga, gb, fmu in terms:
                acc -= c * ga[ys] * gb[xs] * fmu[xs]
            return acc

        slope, _, scales = _two_point_fit(grid, diff)
        rep.add_slope(f"md:two-point:{tau}", slope, target, tol_slope, scales=scales)
    return rep


def reconstruction_report(model: Model, md: ModelledDistribution) -> NormReport:
    """D^gamma check of the family x -> Rf - Pi^g_x f(x)."""
    fam = reconstruction_family(model, md.coeffs)
    rf = reconstruct_family(model, fam, md.gamma)
    # the family's own coefficients, negated in place, are those of -Lambda_x
    for c, _ in fam.terms:
        np.negative(c, out=c)
    ones = np.broadcast_to(1.0, model.grid.shape)
    resid = SeparableFamily(model.grid, [(ones, rf.values)] + fam.terms)
    return d_family_report(resid, float(md.gamma), mask=interior_mask(model.grid))


# -- the T^m(tau) auxiliary structure and J-operator cross-checks ---------------------

def lambda_cross_check(model: Model, root: str, m: int | None = None,
                       tol_agree: float = 1e-5, tol_slope: float = 0.3) -> Report:
    """Builds the negative-homogeneity structure on symbols sigma^{(m)},
    the model (g, Lambda) with Lambda(sigma^{(m)}) = |grad|^m g(sigma), and
    cross-checks the two computations of f_x(D^k sigma) plus the decay bounds."""
    S, grid = model.structure, model.grid
    if root not in S.plus_gens:
        raise KeyError(f"unknown generator {root}")
    h_root = S.plus_gens[root]
    if m is None:
        m = int(math.ceil(h_root)) + 1
    if m <= h_root:
        raise ValueError(f"need m > |tau| = {h_root}, got {m}")
    rep = Report(f"lambda/J cross-check at {root}, m={m}")
    model = model.holding_fields()
    decomp = make_partition(grid)
    mask = interior_mask(grid)

    # symbols sigma^(m): monomials below |root| together with root itself
    monos = [
        mo for mo in S.plus_monomials(h_root)
        if not mo.is_poly and all(n in model.g.values for n, _ in mo.gens)
    ]
    monos.append(PlusMonomial.of_gen(root, S.dim))

    # delta coassociativity of the auxiliary coproduct (exact)
    defect = _delta_aux_coassoc_defect(S, monos)
    rep.add("delta-coassociativity", not defect, float(len(defect)), 0.0, None)

    lam_fields = {mo: fourier_multiplier(m, Field(grid, model.g_field(mo))) for mo in monos}

    for mo in monos:
        h_sigma = S.homog_plus(mo)
        for k in mi_below_abs(S.dim, h_sigma):
            dk = S.d_op(k, mo)
            if not dk and any(k):
                continue
            # (i) direct projection formula
            direct = np.broadcast_to(np.asarray(
                f_character_values(model.g, model.g_inv, dk), dtype=float
            ), grid.shape)
            # (ii) sum of J-operators on the recentered family
            terms = [(float(c), left, right)
                     for c, left, right in S.delta_plus_terms(mo, left_poly=False)
                     if left in lam_fields]
            rows = decomp.blocks(j_operator_pair(decomp, j, k, m, lam_fields[left])
                                 for j in decomp.js for _, left, _ in terms)
            acc = np.zeros(grid.shape)
            medians = np.zeros(decomp.j_max + 2)
            for j in decomp.js:
                vals = np.zeros(grid.shape)
                for c, left, right in terms:
                    vals += c * model.g_inv_field(right) * next(rows)
                acc += vals
                if j >= 1:
                    medians[j + 1] = scale_stats(vals, mask=mask, sup=False)[1]
            scale = max(float(np.max(np.abs(direct[mask]))), 1e-8)
            res = float(np.max(np.abs((acc - direct)[mask]))) / scale
            rep.add(f"agreement:{mo}:k={k}", res <= tol_agree, res, 0.0, tol_agree)
            # first decay bound: |J_j(Lambda_x sigma^{(m)})(x)| <~ 2^{-j(|sigma|-|k|)}
            target = float(h_sigma - mi_abs(k))
            decay = NormReport.from_blocks(medians, medians, target)
            rep.add_norm(f"decay:{mo}:k={k}", decay, target, tol_slope)
    return rep


def _delta_aux_coassoc_defect(S: ConcreteRegularityStructure, monos) -> FreeVector:
    """(delta (x) Id) delta - (Id (x) Delta+) delta on the auxiliary symbols,
    keyed (sigma,) + the coaction_defect key: delta(sigma^{(m)}) =
    sum_{mu <= sigma, mu not poly} mu^{(m)} (x) sigma/mu."""
    allowed = set(monos)

    def delta(mo):
        return FreeVector([((mu, quot), c) for (mu, quot), c in S.delta_plus(mo).items()
                           if not mu.is_poly and mu in allowed])

    return FreeVector([((mo,) + key, c) for mo in monos
                       for key, c in S.coaction_defect(delta, mo).items()])
