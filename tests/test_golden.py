"""Golden symbolic outputs: the structure-file text of every shipped export
and the `bhz-enumerate` / `bhz-transform` reports of every shipped rule must
stay byte-identical.  The files under tests/data/golden were written by
`golden_outputs()` below; a change that means to alter one of them must say
why and rewrite it the same way."""
import contextlib
import io
from pathlib import Path

import pytest

from regpara import cli, library
from regpara.structure_io import write_structure

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
NAMES = sorted(library.RULES)


def _structure_text(name: str, noncanonical: bool, tmp: Path) -> bytes:
    path = tmp / "structure.txt"
    write_structure(path, library.structure(name, noncanonical=noncanonical))
    return path.read_bytes()


def _verb_stdout(verb: str, name: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([verb, "--rule", name])
    return out.getvalue().encode("utf-8")


def golden_outputs(name: str, tmp: Path):
    """(file name, bytes) of the golden outputs of one shipped rule, rebuilt
    from the code."""
    for kind in ("canonical", "noncanonical"):
        yield f"structure-{name}-{kind}.txt", _structure_text(name, kind == "noncanonical", tmp)
    for verb in ("bhz-enumerate", "bhz-transform"):
        yield f"{verb}-{name}.txt", _verb_stdout(verb, name)


def test_golden_set_is_complete():
    """Eight exports and eight reports: no shipped rule goes unchecked."""
    assert len(NAMES) == 4
    assert len(list(GOLDEN.glob("*.txt"))) == 16


@pytest.mark.parametrize("name", NAMES)
def test_golden_outputs_are_byte_identical(name, tmp_path):
    for fname, data in golden_outputs(name, tmp_path):
        assert data == (GOLDEN / fname).read_bytes(), fname
