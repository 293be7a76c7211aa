"""Command-line front door: every verb is a thin wrapper over the library.

Reports are line-oriented key=value text; exit status 0 iff all checks run
within tolerance.  Outputs are byte-identical across runs with identical
inputs, seed, and config.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import library
from .algebra import BaseSymbol, FreeVector, PlusMonomial
from .bundles import (
    Config,
    read_bracket_bundle,
    read_model_bundle,
    write_bracket_bundle,
    write_model_bundle,
)
from .grid import read_field
from .models import BracketExtractor, build_g, build_pi, default_m, extract_brackets, random_brackets
from .norms import Report, holder_norm
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
    ModelledDistribution,
    lambda_cross_check,
    md_from_paracontrolled,
    md_to_paracontrolled,
    random_md_brackets,
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


def _load_rule(args):
    return library.RULES[args.rule] if args.rule in library.RULES else read_rule(args.rule)


def _config(args, S, tol_slope: float = Config.tol_slope) -> Config:
    """The run configuration of a verb that builds a model; the grid
    dimension is the structure's."""
    return Config(dim=S.dim, n=args.grid, box=args.box, m=args.m, seed=args.seed,
                  tol_slope=tol_slope)


def _emit(lines, out_dir=None, name="report.txt", report: Report | None = None) -> int:
    """Writes the lines to stdout and to out_dir/name; the exit status is 1
    when a check of `report` FAILs, else 0."""
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report is None or report.ok else 1


def _slope_line(check) -> str:
    """`name slope=S target=T verdict` of a slope check, or `name
    insufficient-scales scales=N target=T` without a slope."""
    if check.scales is not None:
        return f"{check.name} {check.verdict} scales={check.scales} target={check.target:.4f}"
    return f"{check.name} slope={check.value:.4f} target={check.target:.4f} {check.verdict}"


def cmd_structure_validate(args) -> int:
    S = _load_structure(args)
    rep = S.check_assumptions()
    lines = [f"structure={S.name}"]
    lines += rep.lines()
    hopf = len(S.hopf_defects())
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
    rule = _load_rule(args)
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
    rule = _load_rule(args)
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
    algebra = basis.algebra
    errs = 0
    for t in basis.b_dot:
        back = FreeVector([(t2, c * c2) for ft, c in algebra.to_noncanonical(t).items()
                           for t2, c2 in algebra.to_canonical(ft).items()])
        if back != FreeVector.single(t):
            errs += 1
    lines.append(f"change_of_basis_roundtrip_failures={errs}")
    dim_ok = len(basis.b_dot) == len(basis.b_dot_tilde)
    lines.append(f"dim_match={'pass' if dim_ok else 'fail'}")
    _emit(lines, args.out)
    return 0 if ok_s and errs == 0 and dim_ok else 1


def _random_model(S, cfg: Config):
    grid = cfg.grid()
    gb, pib = random_brackets(S, grid, cfg.seed)
    m = cfg.m if cfg.m >= 0 else default_m(S)
    return build_pi(S, grid, build_g(S, grid, gb), pib, m=m), gb, pib, m


def cmd_model_build(args) -> int:
    S = _load_structure(args)
    cfg = _config(args, S, args.tol_slope)
    model, gb, pib, m = _random_model(S, cfg)
    write_model_bundle(args.out, model, cfg)
    _emit([f"structure={S.name}", f"g_fields={len(model.g.values)}",
           f"pi_fields={len(model.pi) - 1}", f"m={m}", f"out={args.out}"])
    return 0


def cmd_model_extract(args) -> int:
    model, cfg = read_model_bundle(args.model)
    data = extract_brackets(model, m=cfg.m if cfg.m >= 0 else None, tol_slope=cfg.tol_slope)
    if args.out:
        named = {f"g:{mono}": v for mono, v in data.g_side.items()}
        named.update((f"pi:{sym}", v) for sym, v in data.pi_side.items())
        write_bracket_bundle(args.out, model.structure, named, cfg)
    lines = [f"m={data.m}"] + [_slope_line(c) for c in data.report.checks]
    return _emit(lines, args.out, report=data.report)


def cmd_model_check(args) -> int:
    model, cfg = read_model_bundle(args.model)
    rep = validate_model(model, tol_slope=cfg.tol_slope, seed=cfg.seed)
    return _emit(rep.lines(), args.out, report=rep)


def cmd_md_build(args) -> int:
    model, cfg = read_model_bundle(args.model)
    S, grid = model.structure, model.grid
    gamma = Fraction(args.gamma)
    md = md_from_paracontrolled(model, random_md_brackets(S, grid, gamma, cfg.seed + 5000), gamma)
    if args.general:
        # Independent brackets on polynomial-decorated symbols violate the
        # structure condition; the brackets of an md satisfy it by construction.
        full = md_to_paracontrolled(model, md, with_reports=False).brackets
        md = md_from_paracontrolled(model, full, gamma, mode="general")
    rep = validate_md(model, md, tol_slope=cfg.tol_slope)
    lines = [f"gamma={gamma}", f"coefficients={len(md.coeffs)}"]
    lines += rep.lines()
    if args.out:
        named = {f"f:{s}": v for s, v in md.coeffs.items()}
        write_bracket_bundle(args.out, S, named, cfg, kind="md",
                             extra={"gamma.txt": str(gamma)})
    return _emit(lines, args.out, report=rep)


def _read_md(model, path):
    named, _cfg, extra = read_bracket_bundle(path)
    if "gamma.txt" not in extra:
        raise ValueError(f"{path}: gamma.txt is not in the manifest")
    S = model.structure
    coeffs = {}
    for name, f in named.items():
        if not name.startswith("f:"):
            raise ValueError(f"{path}: unexpected field {name!r} in md bundle")
        sym = parse_base_symbol(path, 0, name[2:], S.dim, S.base_gens)
        coeffs[sym] = f.values
    gamma = Fraction(extra["gamma.txt"])
    return ModelledDistribution(S, model.grid, gamma, coeffs)


def cmd_md_extract(args) -> int:
    model, cfg = read_model_bundle(args.model)
    md = _read_md(model, args.md)
    system = md_to_paracontrolled(model, md, tol_slope=cfg.tol_slope)
    if args.out:
        named = {f"b:{s}": v for s, v in system.brackets.items()}
        named["reconstruction"] = system.reconstruction_bracket
        write_bracket_bundle(args.out, model.structure, named, cfg, kind="pd")
    lines = [f"gamma={md.gamma}"] + [_slope_line(c) for c in system.report.checks]
    return _emit(lines, args.out, report=system.report)


def cmd_reconstruct(args) -> int:
    model, cfg = read_model_bundle(args.model)
    md = _read_md(model, args.md)
    rep = Report(f"reconstruction gamma={md.gamma}")
    check = rep.add_norm("reconstruction", reconstruction_report(model, md),
                         float(md.gamma), cfg.tol_slope)
    lines = [f"gamma={md.gamma}",
             f"d_slope={'none' if check.value is None else f'{check.value:.4f}'}",
             f"target={check.target:.4f}", f"status={check.verdict}"]
    return _emit(lines, args.out, report=rep)


def cmd_roundtrip(args) -> int:
    S = _load_structure(args)
    cfg = _config(args, S)
    model, gb, pib, m = _random_model(S, cfg)
    lines = [f"structure={S.name}", f"side={args.side}", f"seed={cfg.seed}", f"m={m}"]
    worst = 0.0

    def compare(side, name, got, f):
        nonlocal worst
        err = float(np.max(np.abs(got - f.values)))
        err /= max(float(np.max(np.abs(f.values))), 1e-30)
        worst = max(worst, err)
        lines.append(f"{side} {name} rel_err={err:.3e}")

    # the brackets of M^g's g-side at m = 0, and of the model's Pi-side
    if args.side in ("g", "both"):
        got, _ = BracketExtractor(model, 0).brackets([PlusMonomial.of_gen(n, S.dim) for n in gb], ())
        for (name, f), bracket in zip(gb.items(), got.values()):
            compare("g", name, bracket.values, f)
    if args.side in ("pi", "both"):
        _, got = BracketExtractor(model, m).brackets((), [BaseSymbol(n, (0,) * S.dim) for n in pib])
        for (name, f), bracket in zip(pib.items(), got.values()):
            compare("pi", name, bracket.values, f)
    rep = Report(f"bracket round trip: {S.name}")
    check = rep.add("roundtrip", worst <= args.tol_rel, worst, 0.0, args.tol_rel)
    lines.append(f"max_rel_err={worst:.3e}")
    lines.append(f"status={check.verdict}")
    return _emit(lines, args.out, report=rep)


def cmd_norm_report(args) -> int:
    f = read_field(args.field)
    rep = holder_norm(f, args.alpha, a=args.a)
    _emit(rep.lines(), args.out, name="norm_report.txt")
    return 0


def cmd_lambda_check(args) -> int:
    model, cfg = read_model_bundle(args.model)
    rep = lambda_cross_check(model, args.generator,
                             m=None if args.m < 0 else args.m)
    return _emit(rep.lines(), args.out, report=rep)


def _structure_flags(p):
    p.add_argument("--structure", required=True,
                   help="structure file, rule file, or shipped name "
                        "(polynomial, toy, toy2d, bhz, twonoise)")
    p.add_argument("--noncanonical", action="store_true")


def _build_flags(p):
    """The random model that model-build and roundtrip draw."""
    _structure_flags(p)
    p.add_argument("--grid", type=int, default=Config.n, help="points per axis")
    p.add_argument("--box", type=float, default=Config.box, help="box half-width")
    p.add_argument("--m", type=int, default=Config.m,
                   help="paraproduct order (-1: the structure default)")
    p.add_argument("--seed", type=int, default=Config.seed)


def _rule_flags(p):
    p.add_argument("--rule", required=True, help="rule file or shipped rule name")


def _model_flags(p):
    p.add_argument("--model", required=True, help="model bundle directory")


def _md_flags(p):
    _model_flags(p)
    p.add_argument("--md", required=True, help="modelled-distribution bundle")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser of every verb, built once per process.  Each verb
    takes --out and exactly the flags its cmd_* function reads."""
    parser = argparse.ArgumentParser(
        prog="regpara",
        description="Concrete regularity structures and paracontrolled calculus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, fn, help, flags=None, out_required=False):
        # no abbreviations: --m must not stand for --model or --md
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--out", default=None, required=out_required,
                       help="directory for artifacts")
        if flags:
            flags(p)
        p.set_defaults(fn=fn)
        return p

    verb("structure-validate", cmd_structure_validate,
         "assumption checks (A)-(D) plus Hopf exactness", _structure_flags)
    p = verb("coproduct", cmd_coproduct, "print the coproduct of one basis element",
             _structure_flags)
    p.add_argument("--element", required=True)
    p.add_argument("--side", choices=("plus", "base"), default="plus")
    verb("bhz-enumerate", cmd_bhz_enumerate, "enumerate tree bases of a rule", _rule_flags)
    verb("bhz-transform", cmd_bhz_transform, "assumption-(D) scan and basis change", _rule_flags)
    p = verb("model-build", cmd_model_build, "build a random model and write a bundle",
             _build_flags, out_required=True)
    p.add_argument("--tol-slope", type=float, default=Config.tol_slope,
                   help="slope tolerance, kept in the bundle for the verbs that read it")
    verb("model-extract", cmd_model_extract, "extract bracket data from a model bundle",
         _model_flags)
    verb("model-check", cmd_model_check, "validate model conditions (a)-(d)", _model_flags)
    p = verb("md-build", cmd_md_build, "build a modelled distribution from random brackets",
             _model_flags)
    p.add_argument("--gamma", required=True)
    p.add_argument("--general", action="store_true")
    verb("md-extract", cmd_md_extract, "paracontrolled representation of an md bundle",
         _md_flags)
    verb("reconstruct", cmd_reconstruct, "reconstruction and its D^gamma check", _md_flags)
    p = verb("roundtrip", cmd_roundtrip, "extract-after-build bracket round trip", _build_flags)
    p.add_argument("--side", choices=("g", "pi", "both"), default="both")
    p.add_argument("--tol-rel", type=float, default=1e-8,
                   help="relative-error bound of the bracket round trip")
    p = verb("norm-report", cmd_norm_report, "per-block norms and fitted slope of a field file")
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p = verb("lambda-check", cmd_lambda_check, "auxiliary-structure / J-operator cross-check",
             _model_flags)
    p.add_argument("--generator", required=True)
    p.add_argument("--m", type=int, default=-1,
                   help="paraproduct order (-1: the structure default)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the verb's function is looked up by name on each call: the parser is
    # built once, and a rebound cmd_* (a wrapper, say) must still be called
    fn = globals()[args.fn.__name__]
    try:
        return fn(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
