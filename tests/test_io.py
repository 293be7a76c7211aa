"""File formats: binary fields, structure/rule text files, tree grammar,
bundles with manifests."""
import dataclasses
import os
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpara import cli
from regpara.bundles import (
    Config,
    _write_manifest,
    read_bracket_bundle,
    read_config,
    read_model_bundle,
    write_bracket_bundle,
    write_config,
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
            _write_manifest(root)
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
        write_bracket_bundle(root, toy_structure, named, Config(n=64),
                             extra={"gamma.txt": "9/8"})
        back, cfg, extra = read_bracket_bundle(root)
        assert set(back) == {"a", "b"}
        assert np.array_equal(back["a"].values, named["a"].values)
        assert (root / "gamma.txt").read_text().strip() == "9/8"
        assert extra == {"gamma.txt": "9/8"}

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

    def test_config_round_trip(self, tmp_path):
        cfg = Config(n=128, seed=9, tol_slope=0.25)
        p = tmp_path / "config.txt"
        write_config(p, cfg)
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
