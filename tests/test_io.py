"""File formats: binary fields, structure/rule text files, tree grammar,
bundles with manifests."""
import builtins
import dataclasses
import hashlib
import os
import shutil
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpara import cli
from regpara.bundles import (
    Config,
    read_bracket_bundle,
    read_config,
    read_model_bundle,
    write_bracket_bundle,
    write_model_bundle,
)
from regpara.grid import Field, Grid, read_field, write_field
from regpara.library import RULES, structure
from regpara.norms import synthesize
from regpara.structure_io import (
    FileFormatError,
    _split_top,
    read_rule,
    read_structure,
    write_rule,
    write_structure,
)
from regpara.trees import TreeParseError, parse_tree

from conftest import build_random_model


@pytest.fixture
def opens(monkeypatch):
    """(path, mode) of every builtins.open call the test makes."""
    seen = []
    real_open = builtins.open

    def spy(file, mode="r", *args, **kwargs):
        seen.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return seen


class TestFieldFormat:
    def test_round_trip(self, grid256, tmp_path):
        f = synthesize(0.5, 1, grid256)
        p = tmp_path / "u.fld"
        write_field(p, f)
        g = read_field(p)
        assert g.grid == grid256
        assert np.array_equal(g.values, f.values)

    def test_layout(self, tmp_path):
        grid = Grid(1, 8, 1.0)
        f = Field(grid, np.arange(8, dtype=float))
        p = tmp_path / "u.fld"
        write_field(p, f)
        raw = p.read_bytes()
        assert raw[:4] == b"RPF1"
        # magic, u32 dim, u32 n, f64 box, then 8 little-endian f64 samples
        assert len(raw) == 4 + 4 + 4 + 8 + 8 * 8
        assert np.frombuffer(raw[20:], dtype="<f8")[3] == 3.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.fld"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError) as err:
            read_field(p)
        assert "magic" in str(err.value)

    @staticmethod
    def _written(tmp_path, n=64):
        p = tmp_path / "u.fld"
        write_field(p, synthesize(0.5, 1, Grid(1, n, np.pi)))
        return p, p.read_bytes()

    @pytest.mark.parametrize("change", [-100, -8, 64], ids=["cut-100", "cut-8", "extra-64"])
    def test_wrong_size_names_the_path_and_both_byte_counts(self, tmp_path, change):
        p, raw = self._written(tmp_path)
        p.write_bytes(raw[:change] if change < 0 else raw + b"\0" * change)
        with pytest.raises(ValueError) as err:
            read_field(p)
        assert str(err.value) == (f"{p}: {len(raw) + change} bytes, expected {len(raw)} "
                                  "for dim 1, n 64")

    def test_bad_header_dim_names_the_path(self, tmp_path):
        p, raw = self._written(tmp_path)
        p.write_bytes(raw[:4] + (3).to_bytes(4, "little") + raw[8:])
        with pytest.raises(ValueError) as err:
            read_field(p)
        assert str(err.value) == f"{p}: bad header: dim must be 1 or 2, got 3"

    def test_truncated_field_fails_the_cli_with_the_path(self, tmp_path, capsys):
        from regpara.cli import main

        p, raw = self._written(tmp_path)
        p.write_bytes(raw[:-100])
        assert main(["norm-report", "--field", str(p), "--alpha", "0.5"]) == 2
        err = capsys.readouterr().err
        assert str(p) in err and f"expected {len(raw)}" in err


class TestStructureFiles:
    @pytest.mark.parametrize("name", ["toy", "bhz", "twonoise"])
    def test_round_trip_and_determinism(self, name, tmp_path):
        S = structure(name)
        p = tmp_path / "s1.txt"
        write_structure(p, S)
        S2 = read_structure(p)
        assert S2.plus_gens == S.plus_gens
        assert S2.base_gens == S.base_gens
        assert S2.dplus_table == S.dplus_table
        assert S2.delta_table == S.delta_table
        p2 = tmp_path / "s2.txt"
        write_structure(p2, S2)
        assert p.read_bytes() == p2.read_bytes()

    def test_rule_reference(self, tmp_path):
        write_rule(tmp_path / "toy.rule", RULES["toy"])
        (tmp_path / "ref.txt").write_text("rule toy.rule noncanonical\n")
        S = read_structure(tmp_path / "ref.txt")
        want = structure("toy", noncanonical=True)
        assert S.delta_table == want.delta_table

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\ncutoff 2\ngen a plus nonsense\n")
        with pytest.raises(FileFormatError) as err:
            read_structure(p)
        assert err.value.line == 3

    def test_unknown_generator_in_table(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\ncutoff 2\ngen a plus 1/2\ndplus a = b (x) 1\n")
        with pytest.raises(FileFormatError) as err:
            read_structure(p)
        assert "unknown plus-generator" in str(err.value)

    @pytest.mark.parametrize("key", ["dim", "cutoff", "rule", "gen", "dplus", "delta"])
    def test_key_without_a_value_names_its_line(self, key, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text(f"dim 1\ncutoff 2\n{key}\n")
        with pytest.raises(FileFormatError) as err:
            read_structure(p)
        assert str(err.value) == f"{p}:3: {key!r} needs a value"
        assert cli.main(["structure-validate", "--structure", str(p)]) == 2
        assert f"{p}:3: " in capsys.readouterr().err

    def test_non_integer_dim_names_its_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("cutoff 2\ndim x\n")
        with pytest.raises(FileFormatError) as err:
            read_structure(p)
        assert str(err.value) == f"{p}:2: expected an integer >= 1, got 'x'"

    @pytest.mark.parametrize("power", ["0", "-1", "x", ""])
    def test_power_not_a_positive_integer_names_its_line(self, power, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\ncutoff 2\ngen J0 plus 1/2\ngen th base -1/2\n"
                     f"delta th = th (x) 1 + 1 * th (x) J0^{power}\n")
        with pytest.raises(FileFormatError) as err:
            read_structure(p)
        assert str(err.value) == f"{p}:5: expected an integer >= 1, got {power!r}"

    def test_handwritten_structure(self, tmp_path):
        p = tmp_path / "hand.txt"
        p.write_text(
            "dim 1\n"
            "cutoff 2\n"
            "gen u base -1/2\n"
            "gen J plus 3/2\n"
            "dplus J = J (x) 1 + 1 (x) J + 1/2 * X(1) (x) J\n"
            "delta u = u (x) 1\n"
        )
        S = read_structure(p)
        assert S.plus_gens["J"] == 3 / 2
        rep = S.check_assumptions()
        assert not rep.c_ok
        assert rep.c_failures == ["D^(1) J = 1/2 J is not a basis generator"]


# One malformed file per refusal of the rule and structure readers: (reader,
# text, line, message); line 0 is the whole file.
_HEAD = "dim 1\ncutoff 2\ngen J0 plus 1/2\ngen th base -1/2\n"
_TABLES = "dplus J0 = J0 (x) 1 + 1 (x) J0\ndelta th = th (x) 1\n"
MALFORMED = {
    "rule-unknown-line": (read_rule, "dim 1\ncutoff 1\nnoise xi -5/8\nfrobnicate 2\n", 4,
                          "unrecognised rule line 'frobnicate 2'"),
    "rule-no-dim": (read_rule, "cutoff 1\nnoise xi -5/8\n", 0, "missing 'dim'"),
    "rule-no-cutoff": (read_rule, "dim 1\nnoise xi -5/8\n", 0, "missing 'cutoff'"),
    "unknown-line": (read_structure, _HEAD + "frobnicate 2\n", 5,
                     "unrecognised structure line 'frobnicate 2'"),
    "bad-rule-line": (read_structure, "rule toy.rule sideways\n", 1,
                      "expected 'rule PATH canonical|noncanonical'"),
    "no-dim": (read_structure, "cutoff 2\n", 0, "missing 'dim' or 'cutoff'"),
    "no-cutoff": (read_structure, "dim 1\n", 0, "missing 'dim' or 'cutoff'"),
    "bad-gen-line": (read_structure, _HEAD + "gen J1 minus 1\n", 5,
                     "expected 'gen NAME plus|base HOMOG'"),
    "no-equals": (read_structure, _HEAD + "dplus J0 J0 (x) 1\n", 5,
                  "expected 'NAME = terms' in 'J0 J0 (x) 1'"),
    "unknown-table-generator": (read_structure, _HEAD + _TABLES + "dplus J9 = J0 (x) 1\n", 7,
                                "dplus for unknown generator 'J9'"),
    "two-tensors": (read_structure, _HEAD + "dplus J0 = J0 (x) 1 (x) 1\n", 5,
                    "term 'J0 (x) 1 (x) 1' needs exactly one ' (x) '"),
    "two-stars": (read_structure, _HEAD + "dplus J0 = 1 * 2 * J0 (x) 1\n", 5,
                  "term '1 * 2 * J0 (x) 1' has too many ' * '"),
    "bad-multi-index": (read_structure, _HEAD + "dplus J0 = J0 (x) 1 + X(a) (x) J0\n", 5,
                        "expected a multi-index in N^1 at '(a)'"),
    "negative-multi-index": (read_structure, _HEAD + "dplus J0 = J0 (x) 1 + X(-1) (x) J0\n",
                             5, "expected a multi-index in N^1 at '(-1)'"),
    "negative-base-multi-index": (read_structure, _HEAD + "dplus J0 = J0 (x) 1 + 1 (x) J0\n"
                                  "delta th = th (x) 1 + X_(-1) (x) 1\n", 6,
                                  "expected a multi-index in N^1 at '(-1)'"),
    "multi-index-dim": (read_structure, _HEAD + "dplus J0 = J0 (x) 1 + X(1,0) (x) J0\n", 5,
                        "multi-index (1,0) does not match dim 1"),
    "trailing-after-x": (read_structure, _HEAD + "dplus J0 = J0 (x) 1 + X(1)J0 (x) 1\n", 5,
                         "trailing input 'J0' after X(1)"),
    "trailing-after-base-x": (read_structure, _HEAD + _TABLES + "delta th = X_(1)th (x) 1\n",
                              7, "trailing input 'th'"),
    "unknown-base-generator": (read_structure, _HEAD + _TABLES + "delta th = zz (x) 1\n", 7,
                               "unknown base generator 'zz'"),
    "two-cores": (read_structure, _HEAD + _TABLES + "delta th = th.th (x) 1\n", 7,
                  "base symbol with two cores"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_names_path_and_line(case, tmp_path):
    reader, text, line, message = MALFORMED[case]
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(FileFormatError) as err:
        reader(p)
    assert str(err.value) == f"{p}:{line}: {message}"


def test_negative_element_is_refused(tmp_path, capsys):
    """Multi-indices live in N^d: the CLI's --element is refused at <arg>."""
    p = tmp_path / "s.txt"
    p.write_text(_HEAD + _TABLES)
    assert cli.main(["coproduct", "--structure", str(p), "--element", "X(-2)"]) == 2
    assert capsys.readouterr().err == "error: <arg>:0: expected a multi-index in N^1 at '(-2)'\n"
    assert cli.main(["coproduct", "--structure", str(p), "--element", "X(2)"]) == 0


class TestRuleFiles:
    def test_round_trip(self, tmp_path):
        for name, rule in RULES.items():
            p = tmp_path / f"{name}.rule"
            write_rule(p, rule)
            back = read_rule(p)
            assert back.noises == rule.noises
            assert back.kernels == rule.kernels
            assert back.products == rule.products
            assert back.polybound == rule.polybound
            assert back.max_e == rule.max_e

    def test_unknown_edge_type_in_product(self, tmp_path):
        p = tmp_path / "bad.rule"
        p.write_text("dim 1\ncutoff 1\nnoise xi -5/8\nallow zz\n")
        with pytest.raises(FileFormatError) as err:
            read_rule(p)
        assert err.value.line == 4

    @pytest.mark.parametrize("key", ["dim", "polybound", "max_e"])
    def test_non_integer_value_names_its_line(self, key, tmp_path):
        p = tmp_path / "bad.rule"
        p.write_text(f"dim 1\ncutoff 1\nnoise xi -5/8\n{key} x\n")
        with pytest.raises(FileFormatError) as err:
            read_rule(p)
        assert err.value.line == 4
        assert "expected an integer" in str(err.value)

    @pytest.mark.parametrize("kind", ["noise", "kernel"])
    def test_edge_type_outside_the_tree_grammar(self, kind, tmp_path):
        # such a name enumerates trees like I[x);(0)](1), which parse_tree
        # cannot read back
        p = tmp_path / "bad.rule"
        p.write_text(f"dim 1\ncutoff 1\nnoise xi -5/8\n{kind} x) -5/8\n")
        with pytest.raises(FileFormatError) as err:
            read_rule(p)
        assert str(err.value).startswith(f"{p}:4: edge type 'x)'")
        with pytest.raises(ValueError, match="edge type 'x\\)'"):
            dataclasses.replace(RULES["toy"], **{kind + "s": (("x)", Fraction(-5, 8)),)})

    @pytest.mark.parametrize("first, second", [("noise", "noise"), ("kernel", "kernel"),
                                               ("noise", "kernel")])
    def test_edge_type_declared_twice(self, first, second, tmp_path):
        # dict(noises) used to keep the last of two noise lines silently
        p = tmp_path / "bad.rule"
        p.write_text(f"dim 1\ncutoff 1\n{first} xi -5/8\nkernel t 2\n{second} xi -1/4\n")
        with pytest.raises(FileFormatError) as err:
            read_rule(p)
        assert str(err.value) == f"{p}:5: edge type xi declared twice"
        declared = {"noises": [], "kernels": []}
        declared[first + "s"] += [("xi", Fraction(-5, 8)), ("t", Fraction(2))]
        declared[second + "s"] += [("xi", Fraction(-1, 4)), ("t", Fraction(2))]
        with pytest.raises(ValueError, match="^edge types declared twice: t, xi$"):
            dataclasses.replace(RULES["toy"], **{k: tuple(v) for k, v in declared.items()})

    def test_bad_rational(self, tmp_path):
        p = tmp_path / "bad.rule"
        p.write_text("dim 1\ncutoff 1\nnoise xi -5//8\n")
        with pytest.raises(FileFormatError) as err:
            read_rule(p)
        assert err.value.line == 3


class TestTreeGrammar:
    def test_error_positions(self):
        with pytest.raises(TreeParseError) as err:
            parse_tree("I[t;(0)](X(1)*I[xi;0](1))", 1)
        assert err.value.line == 1
        assert err.value.col > 10

    def test_dimension_mismatch(self):
        with pytest.raises(TreeParseError):
            parse_tree("X(1,0)", 1)

    @pytest.mark.parametrize("text, col", [("I[t;(-1)](X(2))", 6), ("I[t;(1)](X(-2))", 12),
                                           ("I[t;(1,0)](X(0,-2))", 16), ("X(²)", 3)])
    def test_entry_outside_n_names_its_column(self, text, col):
        dim = 2 if "," in text else 1
        with pytest.raises(TreeParseError) as err:
            parse_tree(text, dim)
        assert (err.value.line, err.value.col) == (1, col)
        assert str(err.value) == f"line 1, column {col}: expected a natural number"


class TestBundles:
    def test_model_bundle_round_trip(self, toy_structure, tmp_path):
        grid = Grid(1, 64, np.pi)
        cfg = Config(n=64)
        model, _gb, _pib = build_random_model(toy_structure, grid, seed=5)
        root = tmp_path / "model"
        write_model_bundle(root, model, cfg)
        back, cfg2 = read_model_bundle(root)
        assert cfg2.n == 64
        for n, v in model.g.values.items():
            assert np.array_equal(back.g.values[n], v)
        for n, v in model.pi.items():
            assert np.array_equal(back.pi[n], v)

    def test_manifest_detects_tampering(self, toy_structure, tmp_path):
        grid = Grid(1, 64, np.pi)
        model, _gb, _pib = build_random_model(toy_structure, grid, seed=5)
        root = tmp_path / "model"
        write_model_bundle(root, model, Config(n=64))
        victim = next(
            os.path.join(root, "g", f)
            for f in os.listdir(os.path.join(root, "g"))
        )
        data = bytearray(Path(victim).read_bytes())
        data[-1] ^= 0xFF
        Path(victim).write_bytes(bytes(data))
        with pytest.raises(ValueError) as err:
            read_model_bundle(root)
        assert "hash mismatch" in str(err.value)

    @pytest.mark.parametrize("name, make_line, problem", [
        ("manifest.txt", lambda d, rel, root: d, "malformed line"),
        ("manifest.txt", lambda d, rel, root: f"{d}  {root / rel}", "absolute path"),
        ("manifest.txt", lambda d, rel, root: f"{d}  ../model/{rel}", "path leaves the bundle"),
        ("fields.txt", lambda sub, rel, root: f"{sub} {rel}", "malformed line"),
        ("fields.txt", lambda sub, rel, root: f"{sub} {root.parent / 'other' / rel} u",
         "absolute path"),
        ("fields.txt", lambda sub, rel, root: f"{sub} ../other/{rel} u", "path leaves the bundle"),
        ("fields.txt", lambda sub, rel, root: f"{sub} g/extra.fld u",
         "field file not in the manifest"),
    ], ids=["manifest-malformed", "manifest-absolute", "manifest-leaves", "fields-malformed",
            "fields-absolute", "fields-leaves", "fields-unlisted"])
    def test_bundle_lines_stay_inside_the_bundle(self, toy_structure, tmp_path, capsys,
                                                 name, make_line, problem):
        """The first line of manifest.txt or fields.txt is replaced (the
        manifest re-hashed after a fields.txt edit); reading the bundle fails
        with the file, the line number and the text, and model-check exits 2."""
        model, _gb, _pib = build_random_model(toy_structure, Grid(1, 64, np.pi), seed=5)
        root, other = tmp_path / "model", tmp_path / "other"
        for path in (root, other):
            write_model_bundle(path, model, Config(n=64))
        lines = (root / name).read_text().splitlines()
        first, rel = lines[0].split()[:2]
        lines[0] = make_line(first, rel, root)
        (root / name).write_text("\n".join(lines) + "\n")
        if name == "fields.txt":
            self._rehash(root, name)
            shutil.copy(other / rel, root / "g" / "extra.fld")   # a file no manifest lists
        message = f"{root / name} line 1 {lines[0]!r}: {problem}"
        with pytest.raises(ValueError) as err:
            read_model_bundle(root)
        assert str(err.value) == message
        assert cli.main(["model-check", "--model", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bracket_bundle(self, toy_structure, tmp_path):
        grid = Grid(1, 64, np.pi)
        named = {"a": synthesize(0.5, 1, grid), "b": synthesize(-0.5, 2, grid)}
        root = tmp_path / "brackets"
        write_bracket_bundle(root, toy_structure, {k: f.values for k, f in named.items()},
                             Config(n=64), extra={"gamma.txt": "9/8"})
        back, cfg, extra = read_bracket_bundle(root)
        assert set(back) == {"a", "b"}
        assert np.array_equal(back["a"].values, named["a"].values)
        assert (root / "gamma.txt").read_text().strip() == "9/8"
        assert extra == {"gamma.txt": "9/8"}

    @staticmethod
    def _rehash(root, name):
        """Puts the sha256 of root/name as it now reads in its manifest line."""
        digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
        manifest = root / "manifest.txt"
        manifest.write_text("".join(digest + line[64:] + "\n" if line.endswith(f"  {name}")
                                    else line + "\n"
                                    for line in manifest.read_text().splitlines()))

    @staticmethod
    def _unlist(root, name):
        """Deletes the manifest line of root/name, the file left in place."""
        manifest = root / "manifest.txt"
        lines = manifest.read_text().splitlines()
        kept = [line for line in lines if not line.endswith(f"  {name}")]
        assert len(kept) == len(lines) - 1
        manifest.write_text("\n".join(kept) + "\n")

    @pytest.mark.parametrize("name", ["config.txt", "structure.txt", "fields.txt"])
    def test_model_reader_opens_only_listed_files(self, toy_structure, tmp_path, capsys,
                                                  name):
        """An unlisted file is refused, by name, whatever it holds: here an
        appended seed=99 in an unlisted config.txt is not read back."""
        model, _gb, _pib = build_random_model(toy_structure, Grid(1, 64, np.pi), seed=5)
        root = tmp_path / "model"
        write_model_bundle(root, model, Config(n=64))
        self._unlist(root, name)
        if name == "config.txt":
            with open(root / name, "a", encoding="utf-8") as fh:
                fh.write("seed=99\n")
        message = f"{root}: {name} is not in the manifest"
        with pytest.raises(ValueError) as err:
            read_model_bundle(root)
        assert str(err.value) == message
        assert cli.main(["model-check", "--model", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_md_reader_opens_only_a_listed_gamma(self, tmp_path, capsys):
        """An md bundle whose gamma.txt is unlisted and edited to 3/2 is
        refused; reconstruct exits 2 and prints no gamma."""
        model, md = str(tmp_path / "model"), tmp_path / "md"
        assert cli.main(["model-build", "--structure", "toy", "--grid", "64",
                         "--out", model]) == 0
        assert cli.main(["md-build", "--model", model, "--gamma", "9/8",
                         "--out", str(md)]) == 0
        capsys.readouterr()
        self._unlist(md, "gamma.txt")
        (md / "gamma.txt").write_text("3/2\n")
        assert cli.main(["reconstruct", "--model", model, "--md", str(md)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {md}: gamma.txt is not in the manifest\n"

    def test_structure_cannot_reference_a_rule_file(self, toy_structure, tmp_path, capsys,
                                                    opens):
        """A listed, correctly hashed structure.txt that names a rule file
        outside the bundle is refused with its file and line, and the rule
        file is never opened; model-check exits 2."""
        model, _gb, _pib = build_random_model(toy_structure, Grid(1, 64, np.pi), seed=5)
        root = tmp_path / "model"
        write_model_bundle(root, model, Config(n=64))
        write_rule(tmp_path / "outside.rule", RULES["toy"])
        (root / "structure.txt").write_text("rule ../outside.rule canonical\n")
        self._rehash(root, "structure.txt")
        message = (f"{root / 'structure.txt'}:1: rule ../outside.rule: a bundle's structure "
                   "cannot reference a rule file")
        opens.clear()
        with pytest.raises(FileFormatError) as err:
            read_model_bundle(root)
        assert str(err.value) == message
        assert cli.main(["model-check", "--model", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        outside = [path for path, _mode in opens
                   if not os.path.abspath(path).startswith(f"{root}{os.sep}")]
        assert outside == []

    @staticmethod
    def _bundle(tmp_path, kind):
        """The root of a toy bundle of one kind, written by the CLI at grid 64;
        model-extract and md-build also write a report.txt that no manifest
        lists."""
        model, out = str(tmp_path / "model"), str(tmp_path / kind)
        assert cli.main(["model-build", "--structure", "toy", "--grid", "64",
                         "--out", model]) == 0
        if kind == "bracket":
            # the status is not checked: slope checks may FAIL at grid 64
            cli.main(["model-extract", "--model", model, "--out", out])
        elif kind == "md":
            assert cli.main(["md-build", "--model", model, "--gamma", "9/8", "--out", out]) == 0
        return tmp_path / kind

    @pytest.mark.parametrize("kind", ["model", "bracket", "md"])
    def test_reader_opens_each_listed_file_once(self, tmp_path, capsys, opens, kind):
        """Reading a bundle opens manifest.txt and each file it lists once,
        and no other file."""
        root = self._bundle(tmp_path, kind)
        listed = [line.split("  ", 1)[1]
                  for line in (root / "manifest.txt").read_text().splitlines()]
        assert "report.txt" not in listed
        assert (root / "report.txt").exists() == (kind != "model")
        opens.clear()
        (read_model_bundle if kind == "model" else read_bracket_bundle)(root)
        assert sorted(os.path.relpath(path, root) for path, _mode in opens) == \
            sorted(listed + ["manifest.txt"])
        assert {mode for _path, mode in opens} <= {"r", "rb"}

    def test_writer_opens_each_file_once_for_writing(self, toy_structure, tmp_path, opens):
        """Writing a bundle opens each file it writes once, for writing only:
        the manifest hashes the bytes written, not a second read of them."""
        model, _gb, _pib = build_random_model(toy_structure, Grid(1, 64, np.pi), seed=5)
        for root in (tmp_path / "model", tmp_path / "md"):
            opens.clear()
            if root.name == "model":
                write_model_bundle(root, model, Config(n=64))
            else:
                write_bracket_bundle(root, toy_structure,
                                     {"a": synthesize(0.5, 1, model.grid).values},
                                     Config(n=64), kind="md", extra={"gamma.txt": "9/8"})
            written = sorted(str(path.relative_to(root)) for path in root.rglob("*")
                             if path.is_file())
            assert sorted(os.path.relpath(path, root) for path, _mode in opens) == written
            assert {mode for _path, mode in opens} <= {"w", "wb"}

    def test_reader_holds_one_field_file_at_a_time(self, tmp_path, capsys):
        """Reading a toy model bundle written at grid 32768 holds, beyond what
        it returns, at most the bytes of one field file and the text files:
        each field file's bytes go once its Field is formed."""
        root = tmp_path / "model"
        assert cli.main(["model-build", "--structure", "toy", "--grid", "32768",
                         "--out", str(root)]) == 0
        files = [path for path in root.rglob("*") if path.is_file()]
        field_file = max(path.stat().st_size for path in files if path.suffix == ".fld")
        texts = sum(path.stat().st_size for path in files if path.suffix == ".txt")
        tracemalloc.start()
        try:
            model, _cfg = read_model_bundle(root)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.pi) > 2
        assert peak - held <= field_file + texts

    def test_writer_holds_one_field_payload_at_a_time(self, toy_structure, tmp_path):
        """Writing a toy model bundle at grid 32768, whose 7 field files
        hold 1.84 MB, traces a peak of at most 0.6 MB: each file's bytes are
        formed from the model's array, one payload copy, as it is written."""
        grid = Grid(1, 32768, np.pi)
        model, _gb, _pib = build_random_model(toy_structure, grid, seed=5)
        root = tmp_path / "model"
        tracemalloc.start()
        try:
            write_model_bundle(root, model, Config(n=32768))
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(list(root.rglob("*.fld"))) == 7
        assert peak <= 600_000

    def test_config_round_trip(self, tmp_path):
        cfg = Config(n=128, seed=9, tol_slope=0.25)
        p = tmp_path / "config.txt"
        p.write_text("".join(line + "\n" for line in cfg.lines()))
        back = read_config(p)
        assert back == cfg

    def test_config_with_retired_fit_window_keys_loads(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("dim=1\nn=128\nseed=9\nfit_lo=-100\nfit_hi=-100\n")
        assert read_config(p) == Config(n=128, seed=9)

    def test_unknown_config_key(self, tmp_path):
        p = tmp_path / "config.txt"
        for key in ("bogus", "grid"):   # a Config method is no key either
            p.write_text(f"{key}=1\n")
            with pytest.raises(ValueError) as err:
                read_config(p)
            assert str(err.value) == f"{p}: unknown config key {key!r}"

    def test_unparsable_config_value_names_the_path_and_key(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("n=128\nseed=nine\n")
        with pytest.raises(ValueError) as err:
            read_config(p)
        assert str(err.value) == f"{p}: config key 'seed': cannot read 'nine' as int"


# -- the structure-line splitter against a character loop ---------------------

SEPARATORS = (" + ", " (x) ", " * ", ".")
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _split_top_by_characters(text: str, sep: str) -> list[str]:
    """The reference splitter: one character at a time, tracking the depth."""
    out = []
    depth = 0
    cur = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            out.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(ch)
        i += 1
    out.append("".join(cur))
    return [c.strip() for c in out if c.strip()]


class TestSplitTop:
    @given(st.lists(st.sampled_from(["(", ")", "[", "]", "{", "}", "a", "x", "1", " ", "+",
                                      "*", ".", *SEPARATORS]), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_character_loop(self, tokens):
        text = "".join(tokens)
        for sep in SEPARATORS:
            assert _split_top(text, sep) == _split_top_by_characters(text, sep), (text, sep)

    def test_matches_the_character_loop_on_every_shipped_structure(self):
        files = sorted(GOLDEN.glob("structure-*.txt"))
        assert len(files) == 8
        for path in files:
            for line in path.read_text(encoding="utf-8").splitlines():
                for sep in SEPARATORS:
                    assert _split_top(line, sep) == _split_top_by_characters(line, sep), (path.name, line)
