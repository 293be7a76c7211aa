"""Command-line verbs: determinism, exit codes, golden outputs."""
import collections
import dataclasses
import subprocess
import sys
from fractions import Fraction

import pytest

from regpara import cli, models
from regpara.algebra import ConcreteRegularityStructure
from regpara.cli import main
from regpara.library import RULES
from regpara.structure_io import write_rule

GOLDEN_BHZ_TRANSFORM = """\
rule=bhz
canonical_D=fail
canonical_D_witness=I[t;(0)](I[th;(0)](1)) (x) X(1) in Delta(I[t;(0)](X(1)*I[th;(0)](1)))
noncanonical_stronger_claim=pass
change_of_basis_roundtrip_failures=0
dim_match=pass
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestVerbs:
    def test_structure_validate_polynomial(self, capsys):
        code, out = run(["structure-validate", "--structure", "polynomial"], capsys)
        assert code == 0
        assert "assumption_A pass" in out
        assert "assumption_D pass" in out
        assert "hopf_defects=0" in out

    def test_structure_validate_canonical_bhz_fails(self, capsys):
        code, out = run(["structure-validate", "--structure", "bhz"], capsys)
        assert code == 1
        assert "assumption_D fail" in out
        assert "D_witness" in out

    def test_structure_validate_noncanonical_bhz_passes(self, capsys):
        code, out = run(
            ["structure-validate", "--structure", "bhz", "--noncanonical"], capsys
        )
        assert code == 0

    def test_coproduct_query(self, capsys):
        code, out = run(
            ["coproduct", "--structure", "polynomial", "--element", "X(2)"], capsys
        )
        assert code == 0
        assert "coproduct=1 1 (x) X(2) + 2 X(1) (x) X(1) + 1 X(2) (x) 1" in out

    def test_bhz_transform_golden(self, capsys):
        code, out = run(["bhz-transform", "--rule", "bhz"], capsys)
        assert code == 0
        assert out == GOLDEN_BHZ_TRANSFORM

    def test_bhz_transform_dim_mismatch_exits_1(self, monkeypatch, capsys):
        """A basis change whose B~. lost an f-tree fails with dim_match=fail;
        every other line reads as before."""
        enumerate_basis = cli.enumerate_basis

        def one_f_tree_short(rule):
            basis = enumerate_basis(rule)
            return dataclasses.replace(basis, b_dot_tilde=basis.b_dot_tilde[:-1])

        monkeypatch.setattr(cli, "enumerate_basis", one_f_tree_short)
        code, out = run(["bhz-transform", "--rule", "bhz"], capsys)
        assert code == 1
        assert out == GOLDEN_BHZ_TRANSFORM.replace("dim_match=pass", "dim_match=fail")

    def test_bhz_enumerate_deterministic(self, capsys):
        code1, out1 = run(["bhz-enumerate", "--rule", "toy"], capsys)
        code2, out2 = run(["bhz-enumerate", "--rule", "toy"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "b_dot=6" in out1

    def test_norm_report(self, tmp_path, capsys):
        import numpy as np

        from regpara.grid import Grid, write_field
        from regpara.norms import synthesize

        f = synthesize(0.5, 3, Grid(1, 256, np.pi))
        p = tmp_path / "u.fld"
        write_field(p, f)
        code, out = run(
            ["norm-report", "--field", str(p), "--alpha", "0.5"], capsys
        )
        assert code == 0
        assert "slope 0.5" in out

    def test_error_exit_code(self, capsys):
        code = main(["structure-validate", "--structure", "/nonexistent/file.txt"])
        assert code == 2

    def test_cutoff_flag_is_rejected(self, capsys):
        # the rule cutoff comes from the structure or rule file; no verb takes one
        with pytest.raises(SystemExit) as exc:
            main(["structure-validate", "--structure", "toy", "--cutoff", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff 2" in capsys.readouterr().err

    def test_removed_flag_is_rejected(self, capsys):
        # the grid of a bundle verb is the bundle's; no such verb takes --grid
        with pytest.raises(SystemExit) as exc:
            main(["model-check", "--model", "M", "--grid", "64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 64" in capsys.readouterr().err

    def test_model_build_requires_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model-build", "--structure", "toy"])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_parser_is_built_once(self, capsys):
        assert cli._parser() is cli._parser()
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["model-check"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "the following arguments are required: --model" in errors[0]

    def test_main_calls_a_rebound_verb_function(self, monkeypatch, capsys):
        # the parser is built once, so main must not call the function it
        # held when it was built
        cli._parser()
        calls = []

        def wrapped(args):
            calls.append(args.rule)
            return 7

        monkeypatch.setattr(cli, "cmd_bhz_enumerate", wrapped)
        assert main(["bhz-enumerate", "--rule", "toy"]) == 7
        assert calls == ["toy"]
        assert capsys.readouterr().out == ""

    def test_slope_check_without_scales_is_named(self):
        import numpy as np

        from regpara.grid import Field, Grid
        from regpara.norms import Report, holder_norm

        rep = Report("brackets")
        check = rep.add_norm("g_bracket u", holder_norm(Field.zero(Grid(1, 256, np.pi)), 0.5),
                             0.5, 0.2)
        assert rep.ok and check.verdict == "insufficient-scales"
        assert cli._slope_line(check) == "g_bracket u insufficient-scales scales=0 target=0.5000"


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "model"
    code = main([
        "model-build", "--structure", "toy", "--out", str(root),
        "--grid", "256", "--seed", "11",
    ])
    assert code == 0
    return root


class TestPipelines:
    def test_roundtrip_verb(self, capsys):
        code, out = run(
            ["roundtrip", "--structure", "toy", "--side", "both",
             "--grid", "256", "--seed", "11"],
            capsys,
        )
        assert code == 0
        assert "status=pass" in out

    def test_model_extract(self, model_dir, capsys):
        code, out = run(["model-extract", "--model", str(model_dir)], capsys)
        assert code == 0
        assert "pi_bracket" in out

    def test_md_cycle(self, model_dir, tmp_path, capsys):
        md_dir = tmp_path / "md"
        code, out = run(
            ["md-build", "--model", str(model_dir), "--gamma", "9/8",
             "--out", str(md_dir)],
            capsys,
        )
        assert code == 0
        code, out = run(
            ["md-extract", "--model", str(model_dir), "--md", str(md_dir)], capsys
        )
        assert code == 0
        code, out = run(
            ["reconstruct", "--model", str(model_dir), "--md", str(md_dir)], capsys
        )
        assert code == 0
        assert "status=pass" in out

    @pytest.mark.parametrize("structure", [["toy"], ["bhz", "--noncanonical"]])
    def test_md_build_general(self, structure, tmp_path, capsys):
        model = str(tmp_path / "model")
        assert main(["model-build", "--structure", *structure, "--grid", "256",
                     "--out", model]) == 0
        code, out = run(["md-build", "--model", model, "--gamma", "9/8", "--general"], capsys)
        assert code == 0
        assert "overall pass" in out

    def test_model_build_takes_the_dimension_from_the_structure(self, tmp_path, capsys):
        model = tmp_path / "model"
        code, out = run(["model-build", "--structure", "toy2d", "--grid", "64",
                         "--out", str(model)], capsys)
        assert code == 0
        assert "structure=toy2d-canonical" in out
        config = (model / "config.txt").read_text(encoding="utf-8").splitlines()
        assert "dim=2" in config and "n=64" in config

    def test_build_flags_reach_the_verbs_that_use_them(self, tmp_path, capsys):
        from regpara.bundles import read_model_bundle

        model = tmp_path / "model"
        code, out = run(["model-build", "--structure", "toy", "--grid", "128",
                         "--box", "2.5", "--m", "3", "--seed", "5", "--tol-slope", "10",
                         "--out", str(model)], capsys)
        assert code == 0
        assert "m=3" in out.splitlines()
        config = (model / "config.txt").read_text(encoding="utf-8").splitlines()
        assert config == ["dim=1", "n=128", "box=2.5", "m=3", "seed=5", "tol_slope=10.0"]
        built, _ = read_model_bundle(model)
        assert (built.grid.n, built.grid.box) == (128, 2.5)
        # the stored order and slope tolerance govern the bundle verbs
        code, out = run(["model-extract", "--model", str(model)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "m=3"
        code, out = run(["model-check", "--model", str(model)], capsys)
        assert code == 0
        assert "target=0.375 tol=10" in out
        generator = "I[t;(0)](I[xi;(0)](1))"
        code, out = run(["lambda-check", "--model", str(model), "--generator", generator],
                        capsys)
        assert f"at {generator}, m=2" in out
        code, out = run(["lambda-check", "--model", str(model), "--generator", generator,
                         "--m", "4"], capsys)
        assert f"at {generator}, m=4" in out
        # roundtrip compares against its own --tol-rel; float error exceeds 0
        code, out = run(["roundtrip", "--structure", "toy", "--grid", "128",
                         "--tol-rel", "0"], capsys)
        assert code == 1
        assert "status=FAIL" in out

    def test_roundtrip_verb_in_two_dimensions(self, capsys):
        code, out = run(["roundtrip", "--structure", "toy2d", "--grid", "64",
                         "--side", "both"], capsys)
        assert code == 0
        assert "status=pass" in out

    def test_byte_identical_reports_across_runs(self, tmp_path):
        cmd = [sys.executable, "-m", "regpara.cli", "roundtrip", "--structure",
               "toy", "--side", "g", "--grid", "256", "--seed", "3"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


# The library call behind each verb that reports checks, and how its
# result gives the Report the verb prints; None where the verb forms the
# Report itself.
REPORTS = {
    "model-extract": ("extract_brackets", lambda data: data.report),
    "model-check": ("validate_model", lambda rep: rep),
    "md-build": ("validate_md", lambda rep: rep),
    "md-extract": ("md_to_paracontrolled", lambda system: system.report),
    "reconstruct": ("reconstruction_report", None),
    "roundtrip": (None, None),
    "lambda-check": ("lambda_cross_check", lambda rep: rep),
}


def test_each_verb_exits_on_its_library_report(tmp_path, monkeypatch, capsys):
    """Every verb that reports checks prints them from one Report, the
    library's where the library forms it, and exits 1 exactly when that
    Report is not ok."""
    M, D = str(tmp_path / "M"), str(tmp_path / "D")
    assert main(["model-build", "--structure", "toy", "--out", M]) == 0
    emitted, returned = [], []
    emit = cli._emit

    def spy_emit(lines, out_dir=None, name="report.txt", report=None):
        emitted.append(report)
        return emit(lines, out_dir, name, report)

    def spy(fn):
        def call(*args, **kwargs):
            returned.append(fn(*args, **kwargs))
            return returned[-1]
        return call

    monkeypatch.setattr(cli, "_emit", spy_emit)
    for name, _ in REPORTS.values():
        if name:
            monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    runs = [
        ["model-extract", "--model", M],
        ["model-check", "--model", M],
        ["md-build", "--model", M, "--gamma", "9/8", "--out", D],
        ["md-extract", "--model", M, "--md", D],
        ["reconstruct", "--model", M, "--md", D],
        ["roundtrip", "--structure", "toy", "--grid", "128"],
        ["roundtrip", "--structure", "toy", "--grid", "128", "--tol-rel", "0"],
        ["lambda-check", "--model", M, "--generator", "I[t;(0)](I[xi;(0)](1))"],
    ]
    codes = set()
    for argv in runs:
        emitted.clear()
        returned.clear()
        code = main(argv)
        out = capsys.readouterr().out
        (report,) = emitted
        assert report.checks and code == (0 if report.ok else 1), argv
        codes.add(code)
        name, of = REPORTS[argv[0]]
        if of:
            (result,) = returned
            assert report is of(result), argv
        elif name:
            (check,) = report.checks
            assert check.norm is returned[0] and f"status={check.verdict}" in out
        else:
            (check,) = report.checks
            assert f"max_rel_err={check.value:.3e}\nstatus={check.verdict}\n" in out
    assert codes == {0, 1}


# -- Hopf exactness and the bracket round trip on the generators -------------

@pytest.fixture
def toy_5_4(tmp_path):
    """The toy rule at cutoff 5/4, past the shipped cutoff, as a rule file."""
    path = tmp_path / "toy-5_4.rule"
    write_rule(path, dataclasses.replace(RULES["toy"], cutoff=Fraction(5, 4)))
    return str(path)


def _counting(monkeypatch, owner, name, counts):
    """Rebinds owner.name to a wrapper that counts its calls in counts[name]."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("flags", [[], ["--noncanonical"]], ids=["canonical", "noncanonical"])
def test_verbs_pass_past_the_shipped_cutoff(toy_5_4, flags, capsys):
    assert main(["structure-validate", "--structure", toy_5_4, *flags]) == 0
    assert "\nhopf_defects=0\n" in capsys.readouterr().out
    assert main(["roundtrip", "--structure", toy_5_4, *flags, "--grid", "256"]) == 0
    assert "\nstatus=pass\n" in capsys.readouterr().out


def test_structure_validate_checks_the_generators(toy_5_4, monkeypatch, capsys):
    """At toy 5/4, 4 plus-generators and X against 30 monomials of B+, and 7
    base generators and X_(1) against 12 symbols of B."""
    counts = collections.Counter()
    for name in ("coassociativity_defect", "comodule_defect"):
        _counting(monkeypatch, ConcreteRegularityStructure, name, counts)
    assert main(["structure-validate", "--structure", toy_5_4]) == 0
    assert counts == {"coassociativity_defect": 5, "comodule_defect": 8}


def test_roundtrip_forms_no_whole_extraction(toy_5_4, monkeypatch, capsys):
    assert "g_as_model" not in vars(cli)
    counts = collections.Counter()
    _counting(monkeypatch, models, "plus_as_base", counts)   # every M^g builds one
    _counting(monkeypatch, models, "extract_brackets", counts)
    _counting(monkeypatch, cli, "extract_brackets", counts)
    assert main(["roundtrip", "--structure", toy_5_4, "--grid", "256"]) == 0
    assert counts == {}


class _RecordingExtractor(models.BracketExtractor):
    made: list = []

    def __init__(self, model, m):
        super().__init__(model, m)
        self.made.append(self)


@pytest.mark.parametrize("structure, grid", [
    (["toy"], 512), (["bhz", "--noncanonical"], 512), (None, 256)],
    ids=["toy", "bhz-noncanonical", "toy-5_4"])
def test_roundtrip_brackets_are_the_whole_extractions(structure, grid, toy_5_4,
                                                      monkeypatch, capsys):
    """Every bracket roundtrip forms has the bits of the same bracket in the
    whole extraction: of M^g at m = 0 on the g-side, of the model on the Pi-side."""
    structure = structure or [toy_5_4]
    monkeypatch.setattr(_RecordingExtractor, "made", [])
    monkeypatch.setattr(cli, "BracketExtractor", _RecordingExtractor)
    assert main(["roundtrip", "--structure", *structure, "--grid", str(grid)]) == 0
    ex_g, ex_pi = _RecordingExtractor.made
    model, S = ex_pi.model, ex_pi.model.structure
    assert ex_g.model is model and ex_g.m == 0 and not ex_g._pi_memo and not ex_pi._g_memo
    rep = S.check_assumptions()
    assert {m.gens[0][0] for m in ex_g._g_memo} >= set(rep.c_generators)
    assert {s.core for s in ex_pi._pi_memo} >= set(S.pi_coordinates())
    whole_g = models.extract_brackets(models.g_as_model(S, model.grid, model.g), m=0,
                                      with_reports=False).g_side
    whole_pi = models.extract_brackets(model, m=ex_pi.m, with_reports=False).pi_side
    for memo, whole in ((ex_g._g_memo, whole_g), (ex_pi._pi_memo, whole_pi)):
        for key, bracket in memo.items():
            assert bracket.values.tobytes() == whole[key].tobytes(), key
