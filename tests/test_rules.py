"""Rule-driven enumeration, assumption-(D) scans, and structure export."""
import dataclasses
import functools
import re
from fractions import Fraction

import pytest

from regpara import cli
from regpara.algebra import FreeVector
from regpara.library import EXPORT_SWEEP, RULES, basis, structure
from regpara.rules import (
    ClosureError,
    Rule,
    SubcriticalityError,
    check_d_canonical,
    check_stronger_claim,
    ell_identity_defect,
    enumerate_basis,
    export_structure,
)
from regpara.structure_io import write_rule, write_structure
from regpara.trees import serialize


class TestEnumeration:
    def test_minimal_noise_only_rule(self):
        # products allow only a single noise edge per node: the basis is the
        # unit, the noise, and polynomial-decorated variants below the cutoff
        rule = Rule(
            dim=1,
            cutoff=Fraction(2),
            noises=(("xi", Fraction(-5, 8)),),
            kernels=(("t", Fraction(2)),),
            products=((("xi", 1),),),
            polybound=1,
            max_e=1,
            name="minimal",
        )
        tb = enumerate_basis(rule)
        names = {serialize(t) for t in tb.trees}
        assert names == {"1", "I[xi;(0)](1)", "X(1)", "X(1)*I[xi;(0)](1)"}
        assert tb.plus_trees == []

    def test_empty_rule_gives_polynomials(self):
        rule = Rule(dim=1, cutoff=Fraction(2), noises=(), kernels=(),
                    products=(), polybound=2, max_e=0, name="empty")
        tb = enumerate_basis(rule)
        assert {serialize(t) for t in tb.trees} == {"1", "X(1)"}

    def test_supercritical_rule_raises(self):
        # a noise at -2 with products allowing pairs keeps lowering
        # homogeneity: generation must abort
        rule = Rule(
            dim=1,
            cutoff=Fraction(2),
            noises=(("xi", Fraction(-1, 4)),),
            kernels=(("t", Fraction(1, 8)),),
            products=((("t", 4),), (("t", 4), ("xi", 1))),
            polybound=2,
            max_e=0,
            name="bad",
        )
        with pytest.raises(SubcriticalityError):
            enumerate_basis(rule)

    def test_dimension_match_between_bases(self):
        for name in ("toy", "bhz", "twonoise"):
            tb = basis(name)
            assert len(tb.b_dot) == len(tb.b_dot_tilde)

    def test_noncanonical_expansions_stay_in_companion_basis(self):
        tb = basis("bhz")
        allowed = set(tb.b_dot_tilde)
        for t in tb.b_dot:
            for ftree, _c in tb.algebra.to_noncanonical(t).items():
                core = ftree.with_root_n((0,) * tb.rule.dim)
                assert core in allowed


class TestAssumptionDScans:
    def test_canonical_scan_finds_the_textbook_witness(self):
        ok, witness = check_d_canonical(basis("bhz"))
        assert not ok
        assert witness == (
            "I[t;(0)](I[th;(0)](1)) (x) X(1) in Delta(I[t;(0)](X(1)*I[th;(0)](1)))"
        )

    def test_toy_canonical_scan_passes(self):
        ok, witness = check_d_canonical(basis("toy"))
        assert ok and witness is None

    def test_stronger_claim_on_noncanonical_bases(self):
        for name in ("toy", "bhz", "twonoise"):
            ok, witness = check_stronger_claim(basis(name))
            assert ok, witness

    def test_shifted_graft_coproduct_has_polynomial_left_defect_only(self):
        tb = basis("bhz")
        for t in tb.b_dot_tilde:
            if t.is_unit:
                continue
            for l in ((0,), (1,)):
                bad = ell_identity_defect(tb, l, (0,), "t", t)
                assert not bad, f"{serialize(t)} l={l}: {bad}"


class TestExport:
    @pytest.mark.parametrize("name", ["toy", "bhz", "twonoise"])
    def test_exported_structures_pass_shape_assumptions(self, name):
        S = structure(name)
        rep = S.check_assumptions()
        assert rep.a_ok, rep.a_failures
        assert rep.b_ok, rep.b_failures
        assert rep.c_ok, rep.c_failures

    def test_noncanonical_export_same_plus_side(self):
        a = structure("bhz")
        b = structure("bhz", noncanonical=True)
        assert a.plus_gens == b.plus_gens
        assert a.dplus_table == b.dplus_table
        assert set(a.base_gens.values()) == set(b.base_gens.values())

    def test_canonical_and_noncanonical_exports_are_hopf_exact(self):
        for nc in (False, True):
            S = structure("bhz", noncanonical=nc)
            for mono in S.plus_monomials():
                assert not S.coassociativity_defect(mono)
            for sym in S.base_symbols():
                assert not S.comodule_defect(sym)

    def test_grading_of_exported_tables(self):
        S = structure("bhz", noncanonical=True)
        for name, vec in S.delta_table.items():
            h = S.base_gens[name]
            for (left, right), _c in vec.items():
                assert S.homog_base(left) + S.homog_plus(right) == h


# -- the export sweep past the shipped cutoffs ----------------------------------

@functools.cache
def _sweep_basis(name: str, cutoff: str):
    return enumerate_basis(dataclasses.replace(RULES[name], cutoff=Fraction(cutoff)))


def _roundtrip(S, tmp_path, capsys) -> float:
    """max_rel_err of the roundtrip verb on S's generator brackets at seed 1,
    on 1024 points (64^2 in d = 2)."""
    path = tmp_path / "structure.txt"
    write_structure(path, S)
    grid = "1024" if S.dim == 1 else "64"
    assert cli.main(["roundtrip", "--structure", str(path), "--grid", grid, "--seed", "1"]) == 0
    return float(re.search(r"^max_rel_err=(\S+)$", capsys.readouterr().out, re.M).group(1))


@pytest.mark.parametrize("noncanonical", [False, True], ids=["canonical", "noncanonical"])
@pytest.mark.parametrize("name, cutoff", EXPORT_SWEEP,
                         ids=[f"{n}-{c.replace('/', '_')}" for n, c in EXPORT_SWEEP])
def test_export_sweep(name, cutoff, noncanonical, tmp_path, capsys):
    """Each export of the sweep succeeds, but toy at 3, which raises
    ClosureError.  A success passes A-C with no Hopf defect and its
    generator round trip; the non-canonical basis passes D, and the
    canonical one fails D, with its witness, iff a tree of B. carries a
    polynomial decoration (its name has an X factor)."""
    try:
        S = export_structure(_sweep_basis(name, cutoff), noncanonical)
    except ClosureError:
        assert (name, cutoff) == ("toy", "3")
        return
    assert (name, cutoff) != ("toy", "3")
    rep = S.check_assumptions()
    assert rep.a_ok and rep.b_ok and rep.c_ok, rep.lines()
    assert S.hopf_defects() == []
    polynomial = not noncanonical and any("X(" in n for n in S.base_gens)
    assert rep.d_ok != polynomial and (rep.d_witness is None) == rep.d_ok
    assert _roundtrip(S, tmp_path, capsys) <= 1e-10


@pytest.mark.parametrize("noncanonical, witness, where", [
    (False, "I[t;(0)](X(2)*I[xi;(0)](1))*I[xi;(0)](1)", "B."),
    (True, "I[t;(0);(2)](I[xi;(0)](1))*I[xi;(0)](1)", "B~."),
], ids=["canonical", "noncanonical"])
def test_closure_error_names_its_witness(noncanonical, witness, where, tmp_path, capsys):
    """Toy at cutoff 3: Delta forms X^2 at an inner node, which polybound
    leaves out of the basis; the export names the missing tree and the
    coproduct term it is the left factor of, and the verbs exit 2 with it."""
    with pytest.raises(ClosureError) as info:
        export_structure(_sweep_basis("toy", "3"), noncanonical)
    exc = info.value
    assert exc.witness == witness and exc.term.startswith(f"{witness} (x) ")
    assert str(exc) == f"{witness} missing from {where}, in the term {exc.term}"
    path = tmp_path / "toy-3.rule"
    write_rule(path, dataclasses.replace(RULES["toy"], cutoff=Fraction(3)))
    flags = ["--noncanonical"] if noncanonical else []
    assert cli.main(["structure-validate", "--structure", str(path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"
