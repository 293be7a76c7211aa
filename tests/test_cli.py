"""Command-line verbs: determinism, exit codes, golden outputs."""
import dataclasses
import subprocess
import sys

import pytest

from regpara import cli
from regpara.cli import main

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
        assert config == ["dim=1", "n=128", "box=2.5", "m=3", "seed=5",
                          "tol_slope=10.0", "tol_rel=1e-08"]
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
