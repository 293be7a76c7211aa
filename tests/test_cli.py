"""Command-line verbs: determinism, exit codes, golden outputs."""
import subprocess
import sys

import pytest

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
        code, out = run(["md-build", "--model", model, "--gamma", "9/8", "--general",
                         "--grid", "256"], capsys)
        assert code == 0
        assert "overall pass" in out

    def test_byte_identical_reports_across_runs(self, tmp_path):
        cmd = [sys.executable, "-m", "regpara.cli", "roundtrip", "--structure",
               "toy", "--side", "g", "--grid", "256", "--seed", "3"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
