"""Acceptance gate: one check per shipped claim, each printing a pass/fail
line at its stated tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from regpara.algebra import BaseSymbol, FreeVector, PlusMonomial, mi_zero
from regpara.blocks import lp_block, make_partition
from regpara.characters import Character
from regpara.grid import Field, Grid, TwoParamField
from regpara.library import basis, structure
from regpara.models import (
    build_g,
    build_pi,
    extract_brackets,
    g_as_model,
    plus_bound,
)
from regpara.norms import holder_norm, interior_mask, synthesize
from regpara.paraproducts import (
    modified_paraproduct,
    paraproduct,
    resonant,
    two_param_modified,
    two_param_paraproduct,
)
from regpara.rules import check_d_canonical, check_stronger_claim, ell_identity_defect
from regpara.translation import (
    chen_residual,
    lambda_cross_check,
    md_from_paracontrolled,
    md_to_paracontrolled,
    random_md_brackets,
    reconstruction_report,
    validate_model,
)

from conftest import build_random_model


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_01_hopf_exactness():
    t0 = time.time()
    checked = 0
    for name in ("polynomial", "toy", "bhz", "twonoise"):
        for nc in ((False, True) if name not in ("polynomial",) else (False,)):
            S = structure(name, noncanonical=nc)
            for mono in S.plus_monomials():
                assert not S.coassociativity_defect(mono)
                checked += 1
            for sym in S.base_symbols():
                assert not S.comodule_defect(sym)
                checked += 1
    report(1, True, f"coassociativity and comodule exact on {checked} basis "
                    f"elements ({time.time() - t0:.1f}s)")


def test_02_character_group(bhz_model):
    t0 = time.time()
    S = structure("bhz")
    rng = random.Random(5)
    pt = (Fraction(1, 3),)
    g1 = Character(S, pt, {n: Fraction(rng.randint(-8, 8), 8) for n in S.plus_gens})
    eps = Character.counit(S)
    conv = g1.convolve(g1.invert())
    exact = all(
        conv.of_monomial(m) == eps.of_monomial(m)
        for m in S.plus_monomials(S.cutoff + Fraction(9, 8))
    )
    model, _gb, _pib = bhz_model
    res = chen_residual(model, np.random.default_rng(0), samples=100)
    ok = exact and res <= 1e-8
    report(2, ok, f"g*g^-1 = counit exactly; Chen residual {res:.2e} <= 1e-8 "
                  f"on 100 random triples ({time.time() - t0:.1f}s)")


def test_03_spectral_exactness():
    t0 = time.time()
    grid = Grid(1, 256, np.pi)
    decomp = make_partition(grid)
    rng = np.random.default_rng(1)
    f = Field(grid, rng.standard_normal(grid.shape))
    g = Field(grid, rng.standard_normal(grid.shape))
    total = sum(lp_block(decomp, j, f).values for j in decomp.js)
    e1 = np.max(np.abs(total - f.values)) / f.sup()
    bony = paraproduct(decomp, f, g) + paraproduct(decomp, g, f) + resonant(decomp, f, g)
    e2 = np.max(np.abs(bony.values - (f * g).values)) / (f.sup() * g.sup())
    bit = np.array_equal(
        modified_paraproduct(decomp, 0, f, g).values, paraproduct(decomp, f, g).values
    )
    lam = TwoParamField.separable(f, g)
    e3 = np.max(
        np.abs(two_param_paraproduct(decomp, lam).values - paraproduct(decomp, f, g).values)
    )
    m = 3
    e4 = np.max(
        np.abs(
            two_param_modified(decomp, m, lam).values
            - modified_paraproduct(decomp, m, f, g).values
        )
    )
    scale = f.sup() * g.sup()
    ok = e1 < 1e-12 and e2 < 1e-12 and bit and e3 < 1e-10 * scale and e4 < 1e-10 * scale
    report(3, ok, f"block sum {e1:.1e}, product decomposition {e2:.1e} (<=1e-12); "
                  f"order-0 bit-equal {bit}; two-parameter consistency "
                  f"{e3 / scale:.1e}/{e4 / scale:.1e} (<=1e-10) ({time.time() - t0:.1f}s)")


def test_04_estimator_calibration():
    t0 = time.time()
    grid = Grid(1, 1024, np.pi)
    worst = 0.0
    for alpha in (-0.6, 0.3, 0.9, 1.5):
        rep = holder_norm(synthesize(alpha, 42, grid), alpha)
        worst = max(worst, abs(rep.slope - alpha))
    report(4, worst <= 0.05, f"synthetic slopes within {worst:.2e} of target "
                             f"(<=0.05), n=1024 ({time.time() - t0:.1f}s)")


def test_05_pi_round_trip(toy_model, toy_structure):
    t0 = time.time()
    S = toy_structure
    model, _gb, pib = toy_model
    data = extract_brackets(model)
    worst = 0.0
    for gen, f in pib.items():
        sym = BaseSymbol(gen, mi_zero(S.dim))
        got = data.pi_side[sym]
        worst = max(worst, np.max(np.abs(got - f.values)) / np.max(np.abs(f.values)))
    mask = interior_mask(model.grid)
    slopes_ok = True
    worst_slope = 0.0
    for sym, vals in data.pi_side.items():
        target = float(S.homog_base(sym))
        rep = holder_norm(Field(model.grid, vals), target, mask=mask)
        if rep.slope is None:
            continue
        deficit = target - rep.slope
        if any(sym.poly) or S.homog_base(sym) >= 0:
            slopes_ok &= deficit <= 0.2      # membership certificate
        else:
            slopes_ok &= abs(deficit) <= 0.2  # inputs carry the exact profile
            worst_slope = max(worst_slope, abs(deficit))
    ok = worst <= 1e-10 and slopes_ok
    report(5, ok, f"rebuild-then-extract error {worst:.1e} (<=1e-10); bracket "
                  f"regularity certificates within 0.2 ({time.time() - t0:.1f}s)")


def test_06_g_round_trip(bhz_model, bhz_structure):
    t0 = time.time()
    S = bhz_structure
    model, gb, _pib = bhz_model
    Mg = g_as_model(S, model.grid, model.g, plus_bound(S))
    data = extract_brackets(Mg, m=0, with_reports=False)
    worst = 0.0
    for gen, f in gb.items():
        mono = PlusMonomial.of_gen(gen, S.dim)
        worst = max(
            worst, np.max(np.abs(data.g_side[mono] - f.values)) / np.max(np.abs(f.values))
        )
    Mg_small = g_as_model(S, model.grid, model.g)
    rep = validate_model(Mg_small, tol_slope=0.2, samples=50)
    ident = [c for c in rep.checks if c.name.startswith("identity")]
    ok = worst <= 1e-8 and rep.ok and all(c.passed for c in ident)
    detail = "; ".join(c.line() for c in rep.checks if not c.passed) or "all conditions met"
    report(6, ok, f"bracket round trip {worst:.1e} (<=1e-8); model conditions "
                  f"(a)-(d) and character identities: {detail} ({time.time() - t0:.1f}s)")


def test_07_modelled_distribution_round_trips(toy_model, toy_structure):
    t0 = time.time()
    S = toy_structure
    model, _gb, _pib = toy_model
    gamma = Fraction(9, 8)
    brackets = random_md_brackets(S, model.grid, gamma, seed=100)
    md = md_from_paracontrolled(model, brackets, gamma, mode="d")
    system = md_to_paracontrolled(model, md, with_reports=False)
    e1 = max(
        np.max(np.abs(system.brackets[s] - brackets[s])) / np.max(np.abs(brackets[s]))
        for s in brackets
    )
    md2 = md_from_paracontrolled(model, dict(system.brackets), gamma, mode="general")
    e2 = max(
        np.max(np.abs(md2.coeffs[s] - v)) / max(np.max(np.abs(v)), 1e-30)
        for s, v in md.coeffs.items()
    )
    rrep = reconstruction_report(model, md)
    slope_ok = rrep.slope is not None and rrep.slope >= float(gamma) - 0.2
    ok = e1 <= 1e-8 and e2 <= 1e-10 and slope_ok
    report(7, ok, f"coordinate round trip {e1:.1e} (<=1e-8); general mode vs "
                  f"direct mode {e2:.1e} (<=1e-10); reconstruction decay slope "
                  f"{rrep.slope:+.3f} vs {float(gamma):.3f} ({time.time() - t0:.1f}s)")


def test_08_tree_basis_change():
    t0 = time.time()
    tb = basis("bhz")
    ok_d, witness = check_d_canonical(tb)
    want = "I[t;(0)](I[th;(0)](1)) (x) X(1) in Delta(I[t;(0)](X(1)*I[th;(0)](1)))"
    witness_ok = (not ok_d) and witness == want
    ok_s, _w = check_stronger_claim(tb)
    alg = tb.algebra
    rt_ok = True
    for t in tb.b_dot:
        back = FreeVector.zero()
        for ft, c in alg.to_noncanonical(t).items():
            back = back + alg.to_canonical(ft).scale(c)
        rt_ok &= back == FreeVector.single(t)
    ell_ok = True
    for t in tb.b_dot_tilde:
        if t.is_unit:
            continue
        for l in ((0,), (1,)):
            ell_ok &= not ell_identity_defect(tb, l, (0,), "t", t)
    ok = witness_ok and ok_s and rt_ok and ell_ok
    report(8, ok, f"canonical witness reproduced; companion basis passes the "
                  f"no-polynomial-right scan; basis change exact; shifted-graft "
                  f"coproduct identity exact ({time.time() - t0:.1f}s)")


def test_09_auxiliary_cross_check(bhz_model, bhz_structure):
    t0 = time.time()
    S = bhz_structure
    model, _gb, _pib = bhz_model
    Mg = g_as_model(S, model.grid, model.g)
    all_ok = True
    details = []
    for root in S.check_assumptions().c_generators:
        rep = lambda_cross_check(Mg, root, tol_agree=1e-5, tol_slope=0.3)
        all_ok &= rep.ok
        details += [c.line() for c in rep.checks if not c.passed]
    report(9, all_ok, "two evaluations of the projection functional agree to "
                      "1e-5; block decay slopes within 0.3 "
                      + ("; ".join(details) if details else "")
                      + f" ({time.time() - t0:.1f}s)")


def test_10_continuity_probe(toy_structure, grid512):
    t0 = time.time()
    S = toy_structure
    model, gb, pib = build_random_model(S, grid512, seed=31)
    victim = S.check_assumptions().c_generators[0]
    noise = synthesize(float(S.plus_gens[victim]), 777, grid512)
    responses = []
    for delta in (1e-3, 1e-2):
        gb2 = dict(gb)
        gb2[victim] = gb[victim] + delta * noise
        g2 = build_g(S, grid512, gb2)
        model2 = build_pi(S, grid512, g2, pib)
        change = max(
            float(np.max(np.abs(model2.pi[n] - model.pi[n]))) for n in model.pi
        )
        responses.append(change / delta)
    lo, hi = sorted(responses)
    ok = hi > 0 and hi / lo < 2.0
    report(10, ok, f"response/perturbation ratios {lo:.3g} and {hi:.3g}: drift "
                   f"x{hi / lo:.2f} < x2 across two decades ({time.time() - t0:.1f}s)")
