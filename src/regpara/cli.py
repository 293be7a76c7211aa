"""Command-line front door: every verb is a thin wrapper over the library.

Reports are line-oriented key=value text; exit status 0 iff all checks run
within tolerance.  Outputs are byte-identical across runs with identical
inputs, seed, and config.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import library
from .algebra import BaseSymbol, PlusMonomial, term_key
from .bundles import (
    Config,
    read_bracket_bundle,
    read_model_bundle,
    write_bracket_bundle,
    write_model_bundle,
)
from .grid import Field, read_field
from .models import (
    build_g,
    build_pi,
    default_m,
    extract_brackets,
    g_as_model,
)
from .norms import holder_norm, synthesize
from .rules import (
    check_d_canonical,
    check_stronger_claim,
    enumerate_basis,
    export_structure,
)
from .structure_io import (
    parse_base_symbol,
    parse_plus_monomial,
    read_rule,
    read_structure,
)
from .translation import (
    lambda_cross_check,
    md_from_paracontrolled,
    md_to_paracontrolled,
    reconstruction_report,
    validate_md,
    validate_model,
)
from .trees import serialize


def _load_structure(args):
    if args.structure in library.RULES or args.structure == "polynomial":
        return library.structure(args.structure, noncanonical=args.noncanonical)
    path = args.structure
    if path.endswith(".rule"):
        return export_structure(enumerate_basis(read_rule(path)), args.noncanonical)
    return read_structure(path)


def _config(args) -> Config:
    cfg = Config(dim=args.dim, n=args.grid, box=args.box, m=args.m, seed=args.seed,
                 tol_slope=args.tol_slope, tol_rel=args.tol_rel)
    if args.fit_window:
        lo, hi = args.fit_window.split(":")
        cfg.fit_lo, cfg.fit_hi = int(lo), int(hi)
    return cfg


def _emit(lines, out_dir=None, name="report.txt"):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_exit(report) -> int:
    return 0 if report.ok else 1


def cmd_structure_validate(args) -> int:
    S = _load_structure(args)
    rep = S.check_assumptions()
    lines = [f"structure={S.name}"]
    lines += rep.lines()
    hopf = 0
    for mono in S.plus_monomials():
        if S.coassociativity_defect(mono):
            hopf += 1
    for sym in S.base_symbols():
        if S.comodule_defect(sym):
            hopf += 1
    lines.append(f"hopf_defects={hopf}")
    _emit(lines, args.out)
    return 0 if rep.all_ok and hopf == 0 else 1


def cmd_coproduct(args) -> int:
    S = _load_structure(args)
    if args.side == "plus":
        mono = parse_plus_monomial("<arg>", 0, args.element, S.dim, S.plus_gens)
        vec = S.delta_plus(mono)
    else:
        sym = parse_base_symbol("<arg>", 0, args.element, S.dim, S.base_gens)
        vec = S.delta(sym)
    _emit([f"element={args.element}", f"coproduct={vec.serialize()}"], args.out)
    return 0


def cmd_bhz_enumerate(args) -> int:
    rule = library.RULES[args.rule] if args.rule in library.RULES else read_rule(args.rule)
    basis = enumerate_basis(rule)
    lines = [f"rule={rule.name}", f"closure={len(basis.trees)}",
             f"b_dot={len(basis.b_dot)}", f"b_dot_tilde={len(basis.b_dot_tilde)}",
             f"plus={len(basis.plus_trees)}"]
    for t in basis.b_dot:
        lines.append(f"B. {basis.homog(t)} {serialize(t)}")
    for t in basis.b_dot_tilde:
        lines.append(f"B~. {basis.homog(t)} {serialize(t)}")
    for t in basis.plus_trees:
        lines.append(f"B+ {basis.homog(t)} {serialize(t)}")
    _emit(lines, args.out)
    return 0


def cmd_bhz_transform(args) -> int:
    rule = library.RULES[args.rule] if args.rule in library.RULES else read_rule(args.rule)
    basis = enumerate_basis(rule)
    ok_d, witness = check_d_canonical(basis)
    ok_s, witness_s = check_stronger_claim(basis)
    lines = [f"rule={rule.name}",
             f"canonical_D={'pass' if ok_d else 'fail'}"]
    if witness:
        lines.append(f"canonical_D_witness={witness}")
    lines.append(f"noncanonical_stronger_claim={'pass' if ok_s else 'fail'}")
    if witness_s:
        lines.append(f"noncanonical_witness={witness_s}")
    # round trip of the change of basis
    from .algebra import FreeVector

    errs = 0
    for t in basis.b_dot:
        back = FreeVector.zero()
        for ft, c in basis.algebra.to_noncanonical(t).items():
            back = back + basis.algebra.to_canonical(ft).scale(c)
        if back != FreeVector.single(t):
            errs += 1
    lines.append(f"change_of_basis_roundtrip_failures={errs}")
    lines.append(f"dim_match={'pass' if len(basis.b_dot) == len(basis.b_dot_tilde) else 'fail'}")
    _emit(lines, args.out)
    return 0 if ok_s and errs == 0 else 1


def _random_model(S, cfg: Config):
    grid = cfg.grid()
    rep = S.check_assumptions()
    roots = sorted(rep.c_generators, key=lambda n: (S.plus_gens[n], n))
    gb = {r: synthesize(float(S.plus_gens[r]), seed=cfg.seed + i, grid=grid)
          for i, r in enumerate(roots)}
    g = build_g(S, grid, gb)
    negs = sorted((n for n, h in S.base_gens.items() if h < 0),
                  key=lambda n: (S.base_gens[n], n))
    pib = {n: synthesize(float(S.base_gens[n]), seed=cfg.seed + 1000 + i, grid=grid)
           for i, n in enumerate(negs)}
    m = cfg.m if cfg.m >= 0 else default_m(S)
    model = build_pi(S, grid, g, pib, m=m)
    return model, gb, pib, m


def cmd_model_build(args) -> int:
    S = _load_structure(args)
    cfg = _config(args)
    model, gb, pib, m = _random_model(S, cfg)
    if not args.out:
        raise SystemExit("model-build requires --out DIR")
    write_model_bundle(args.out, model, cfg)
    _emit([f"structure={S.name}", f"g_fields={len(model.g.values)}",
           f"pi_fields={len(model.pi) - 1}", f"m={m}", f"out={args.out}"])
    return 0


def cmd_model_extract(args) -> int:
    model, cfg = read_model_bundle(args.model)
    m = cfg.m if cfg.m >= 0 else default_m(model.structure)
    data = extract_brackets(model, m=m)
    lines = [f"m={m}"]
    ok = True
    grid = model.grid
    named = {}
    for mono, vals in data.g_side.items():
        rep = data.reports.get(f"g:{mono}")
        named[f"g:{mono}"] = Field(grid, vals)
        if rep is not None and rep.slope is not None:
            h = float(model.structure.homog_plus(mono))
            good = rep.slope >= h - cfg.tol_slope
            ok &= good
            lines.append(f"g_bracket {term_key(mono)} slope={rep.slope:.4f} "
                         f"target={h:.4f} {'pass' if good else 'FAIL'}")
    for sym, vals in data.pi_side.items():
        rep = data.reports.get(f"pi:{sym}")
        named[f"pi:{sym}"] = Field(grid, vals)
        if rep is not None and rep.slope is not None:
            h = float(model.structure.homog_base(sym))
            good = rep.slope >= h - cfg.tol_slope
            ok &= good
            lines.append(f"pi_bracket {term_key(sym)} slope={rep.slope:.4f} "
                         f"target={h:.4f} {'pass' if good else 'FAIL'}")
    if args.out:
        write_bracket_bundle(args.out, model.structure, named, cfg)
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_model_check(args) -> int:
    model, cfg = read_model_bundle(args.model)
    rep = validate_model(model, tol_slope=cfg.tol_slope, seed=cfg.seed)
    _emit(rep.lines(), args.out)
    return _report_exit(rep)


def cmd_md_build(args) -> int:
    model, cfg = read_model_bundle(args.model)
    S, grid = model.structure, model.grid
    gamma = Fraction(args.gamma)
    rng_base = cfg.seed + 5000
    brackets = {}
    for i, sym in enumerate(s for s in S.base_symbols(gamma) if not any(s.poly)):
        target = float(gamma - S.homog_base(sym))
        brackets[sym] = synthesize(target, rng_base + i, grid).values
    md = md_from_paracontrolled(model, brackets, gamma)
    if args.general:
        # Independent brackets on polynomial-decorated symbols violate the
        # structure condition; the brackets of an md satisfy it by construction.
        full = md_to_paracontrolled(model, md, with_reports=False).brackets
        md = md_from_paracontrolled(model, full, gamma, mode="general")
    rep = validate_md(model, md, tol_slope=cfg.tol_slope)
    lines = [f"gamma={gamma}", f"coefficients={len(md.coeffs)}"]
    lines += rep.lines()
    if args.out:
        named = {f"f:{s}": Field(grid, v) for s, v in md.coeffs.items()}
        write_bracket_bundle(args.out, S, named, cfg, kind="md",
                             extra={"gamma.txt": str(gamma)})
    _emit(lines, args.out)
    return _report_exit(rep)


def _read_md(model, path):
    from .translation import ModelledDistribution

    named, cfg = read_bracket_bundle(path)
    S = model.structure
    coeffs = {}
    for name, f in named.items():
        if not name.startswith("f:"):
            raise ValueError(f"{path}: unexpected field {name!r} in md bundle")
        sym = parse_base_symbol(path, 0, name[2:], S.dim, S.base_gens)
        coeffs[sym] = f.values
    gamma = Fraction(cfg_extra_gamma(path))
    return ModelledDistribution(S, model.grid, gamma, coeffs)


def cfg_extra_gamma(path):
    meta = os.path.join(path, "gamma.txt")
    if os.path.exists(meta):
        with open(meta, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    raise ValueError(f"{path}: missing gamma.txt")


def cmd_md_extract(args) -> int:
    model, cfg = read_model_bundle(args.model)
    md = _read_md(model, args.md)
    system = md_to_paracontrolled(model, md)
    lines = [f"gamma={md.gamma}"]
    ok = True
    for sym, vals in system.brackets.items():
        rep = system.reports.get(f"f:{sym}")
        if rep is not None and rep.slope is not None:
            target = float(md.gamma - model.structure.homog_base(sym))
            good = rep.slope >= target - cfg.tol_slope
            ok &= good
            lines.append(f"md_bracket {term_key(sym)} slope={rep.slope:.4f} "
                         f"target={target:.4f} {'pass' if good else 'FAIL'}")
    if args.out:
        named = {f"b:{s}": Field(model.grid, v) for s, v in system.brackets.items()}
        named["reconstruction"] = Field(model.grid, system.reconstruction_bracket)
        write_bracket_bundle(args.out, model.structure, named, cfg, kind="pd")
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_reconstruct(args) -> int:
    model, cfg = read_model_bundle(args.model)
    md = _read_md(model, args.md)
    rep = reconstruction_report(model, md)
    target = float(md.gamma)
    ok = rep.slope is None or rep.slope >= target - cfg.tol_slope
    lines = [f"gamma={md.gamma}",
             f"d_slope={'none' if rep.slope is None else f'{rep.slope:.4f}'}",
             f"target={target:.4f}", f"status={'pass' if ok else 'FAIL'}"]
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_roundtrip(args) -> int:
    S = _load_structure(args)
    cfg = _config(args)
    grid = cfg.grid()
    model, gb, pib, m = _random_model(S, cfg)
    lines = [f"structure={S.name}", f"side={args.side}", f"seed={cfg.seed}", f"m={m}"]
    worst = 0.0
    if args.side in ("g", "both"):
        Mg = g_as_model(S, grid, model.g)
        data = extract_brackets(Mg, m=0, with_reports=False)
        for name, f in gb.items():
            mono = PlusMonomial.of_gen(name, S.dim)
            err = float(np.max(np.abs(data.g_side[mono] - f.values)))
            err /= max(float(np.max(np.abs(f.values))), 1e-30)
            worst = max(worst, err)
            lines.append(f"g {name} rel_err={err:.3e}")
    if args.side in ("pi", "both"):
        data = extract_brackets(model, m=m, with_reports=False)
        for name, f in pib.items():
            sym = BaseSymbol(name, (0,) * S.dim)
            err = float(np.max(np.abs(data.pi_side[sym] - f.values)))
            err /= max(float(np.max(np.abs(f.values))), 1e-30)
            worst = max(worst, err)
            lines.append(f"pi {name} rel_err={err:.3e}")
    ok = worst <= cfg.tol_rel
    lines.append(f"max_rel_err={worst:.3e}")
    lines.append(f"status={'pass' if ok else 'FAIL'}")
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_norm_report(args) -> int:
    f = read_field(args.field)
    rep = holder_norm(f, args.alpha, a=args.a)
    _emit(rep.lines(), args.out, name="norm_report.txt")
    return 0


def cmd_lambda_check(args) -> int:
    model, cfg = read_model_bundle(args.model)
    rep = lambda_cross_check(model, args.generator,
                             m=None if args.m < 0 else args.m)
    _emit(rep.lines(), args.out)
    return _report_exit(rep)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regpara",
        description="Concrete regularity structures and paracontrolled calculus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, structure=False, model=False, md=False):
        p.add_argument("--out", default=None, help="directory for artifacts")
        p.add_argument("--grid", type=int, default=512)
        p.add_argument("--box", type=float, default=float(np.pi))
        p.add_argument("--dim", type=int, default=1)
        p.add_argument("--m", type=int, default=-1)
        p.add_argument("--cutoff", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-slope", type=float, default=0.2)
        p.add_argument("--tol-rel", type=float, default=1e-8)
        p.add_argument("--fit-window", default=None, metavar="JMIN:JMAX")
        if structure:
            p.add_argument("--structure", required=True,
                           help="structure file, rule file, or shipped name "
                                "(polynomial, toy, bhz, twonoise)")
            p.add_argument("--noncanonical", action="store_true")
        if model:
            p.add_argument("--model", required=True, help="model bundle directory")
        if md:
            p.add_argument("--md", required=True, help="modelled-distribution bundle")

    p = sub.add_parser("structure-validate", help="assumption checks (A)-(D) plus Hopf exactness")
    common(p, structure=True)
    p.set_defaults(fn=cmd_structure_validate)

    p = sub.add_parser("coproduct", help="print the coproduct of one basis element")
    common(p, structure=True)
    p.add_argument("--element", required=True)
    p.add_argument("--side", choices=("plus", "base"), default="plus")
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("bhz-enumerate", help="enumerate tree bases of a rule")
    common(p)
    p.add_argument("--rule", required=True)
    p.set_defaults(fn=cmd_bhz_enumerate)

    p = sub.add_parser("bhz-transform", help="assumption-(D) scan and basis change")
    common(p)
    p.add_argument("--rule", required=True)
    p.set_defaults(fn=cmd_bhz_transform)

    p = sub.add_parser("model-build", help="build a random model and write a bundle")
    common(p, structure=True)
    p.set_defaults(fn=cmd_model_build)

    p = sub.add_parser("model-extract", help="extract bracket data from a model bundle")
    common(p, model=True)
    p.set_defaults(fn=cmd_model_extract)

    p = sub.add_parser("model-check", help="validate model conditions (a)-(d)")
    common(p, model=True)
    p.set_defaults(fn=cmd_model_check)

    p = sub.add_parser("md-build", help="build a modelled distribution from random brackets")
    common(p, model=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--general", action="store_true")
    p.set_defaults(fn=cmd_md_build)

    p = sub.add_parser("md-extract", help="paracontrolled representation of an md bundle")
    common(p, model=True, md=True)
    p.set_defaults(fn=cmd_md_extract)

    p = sub.add_parser("reconstruct", help="reconstruction and its D^gamma check")
    common(p, model=True, md=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="extract-after-build bracket round trip")
    common(p, structure=True)
    p.add_argument("--side", choices=("g", "pi", "both"), default="both")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("norm-report", help="per-block norms and fitted slope of a field file")
    common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.set_defaults(fn=cmd_norm_report)

    p = sub.add_parser("lambda-check", help="auxiliary-structure / J-operator cross-check")
    common(p, model=True)
    p.add_argument("--generator", required=True)
    p.set_defaults(fn=cmd_lambda_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
