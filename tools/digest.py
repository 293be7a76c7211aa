"""One sha256 per output of the benchmark's workloads, to show that a change
keeps every output bit-identical.

    python tools/digest.py

prints `<output> <sha256>` lines:

- `toy-1d-32k:<step>`, for every step of one pass of
  `perfbench/pipeline.py` at seed 1, then `toy-1d-32k:validate_md`, the
  (D)-mode md of that pass validated on its model (a step the pass leaves
  out in d = 1): arrays by their dtype, shape and bytes, reports by their
  lines, dicts entry by entry in the order of their keys' strings;
- `bhz-4096:<step>`, the same steps, validate_md among them, on bhz
  --noncanonical at n = 4096, formed by calling the library directly: the
  model from `random_brackets` at seed 1, extracted with reports, and the
  (D)-mode md from `random_md_brackets` at gamma = 9/8 and seed 1.  Its
  coproducts have terms with c != 1 on both the g- and the Pi-side;
- `cli-512:<chain>:<verb>` for the exit status and stdout of every verb of
  both `perfbench/clichain.py` chains (roundtrip at seed 1), and
  `cli-512:<chain>/<file>` for every file the bundle verbs write;
- `demos:<script>` for the stdout of every script under `demos/`, run in
  this process;
- `symbolic:<rule>@<cutoff>:<basis>` for every export of
  `library.EXPORT_SWEEP`, on the canonical and the non-canonical basis: the
  structure-file text, or the message of the ClosureError that stops it;
- `all`, the sha256 of the lines above it.

The chains run in a temporary directory, whose path is replaced by
`<work>` in stdout, and no bytecode is written, so nothing is left in the
checkout.  Compare the output of two commits, or of one commit under
`PYTHONHASHSEED=0` and `=1`: equal lines are equal bits.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import runpy
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import clichain  # noqa: E402
import pipeline  # noqa: E402
from regpara.characters import Character  # noqa: E402
from regpara.grid import Grid  # noqa: E402
from regpara.library import EXPORT_SWEEP, RULES, structure  # noqa: E402
from regpara.models import Model, build_g, build_pi, extract_brackets, random_brackets  # noqa: E402
from regpara.rules import ClosureError, enumerate_basis, export_structure  # noqa: E402
from regpara.structure_io import structure_text  # noqa: E402
from regpara.translation import (  # noqa: E402
    md_from_paracontrolled,
    md_to_paracontrolled,
    random_md_brackets,
    reconstruction_report,
    validate_md,
    validate_model,
)

SEED = 1


def _chunks(obj):
    """The bytes of an output, in a fixed order."""
    if isinstance(obj, Character):
        obj = obj.values
    elif isinstance(obj, Model):
        obj = obj.pi
    elif dataclasses.is_dataclass(obj) and not hasattr(obj, "lines"):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
               if f.name not in ("structure", "grid")}
    if isinstance(obj, np.ndarray):
        yield f"{obj.dtype.str}{obj.shape}".encode()
        yield np.ascontiguousarray(obj).tobytes()
    elif hasattr(obj, "lines"):
        yield "\n".join(obj.lines()).encode()
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            yield f"\n{key}:".encode()
            yield from _chunks(obj[key])
    elif isinstance(obj, bytes):
        yield obj
    else:
        yield str(obj).encode()


def digest(obj) -> str:
    h = hashlib.sha256()
    for chunk in _chunks(obj):
        h.update(chunk)
    return h.hexdigest()


def pipeline_outputs():
    inp = pipeline.setup("toy-1d-32k", SEED)
    results = {}
    for _half, op, fn in pipeline.steps(inp):
        results[op] = fn(results)
        yield f"toy-1d-32k:{op}", results[op]
    yield "toy-1d-32k:validate_md", validate_md(results["build_pi"], results["md_from_d"])


def bhz_outputs():
    S, grid, gamma = structure("bhz", noncanonical=True), Grid(1, 4096, np.pi), Fraction(9, 8)
    g_brackets, pi_brackets = random_brackets(S, grid, SEED)
    g = build_g(S, grid, g_brackets)
    yield "bhz-4096:build_g", g
    model = build_pi(S, grid, g, pi_brackets)
    yield "bhz-4096:build_pi", model
    yield "bhz-4096:extract_brackets", extract_brackets(model)
    yield "bhz-4096:validate_model", validate_model(model)
    md = md_from_paracontrolled(model, random_md_brackets(S, grid, gamma, SEED), gamma, mode="d")
    yield "bhz-4096:md_from_d", md
    yield "bhz-4096:validate_md", validate_md(model, md)
    system = md_to_paracontrolled(model, md)
    yield "bhz-4096:md_to", system
    yield "bhz-4096:md_from_general", md_from_paracontrolled(
        model, dict(system.brackets), gamma, mode="general")
    yield "bhz-4096:reconstruction_report", reconstruction_report(model, md)


def cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        inp = clichain.setup("cli-512", SEED, Path(tmp) / "work")
        for _half, op, fn in clichain.steps(inp):
            rc, out, _err = fn({})
            yield f"cli-512:{op}", f"exit={rc}\n{out}".replace(str(inp.workdir), "<work>")
        for path in sorted(p for p in inp.workdir.rglob("*") if p.is_file()):
            yield f"cli-512:{path.relative_to(inp.workdir).as_posix()}", path.read_bytes()


def demo_outputs():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        yield f"demos:{demo.stem}", out.getvalue()


def symbolic_outputs():
    for name, cutoff in EXPORT_SWEEP:
        basis = enumerate_basis(dataclasses.replace(RULES[name], cutoff=Fraction(cutoff)))
        for kind in ("canonical", "noncanonical"):
            try:
                out = structure_text(export_structure(basis, kind == "noncanonical"))
            except ClosureError as exc:
                out = str(exc)
            yield f"symbolic:{name}@{cutoff}:{kind}", out


def main() -> int:
    lines = []
    for name, obj in itertools.chain(pipeline_outputs(), bhz_outputs(), cli_outputs(),
                                     demo_outputs(), symbolic_outputs()):
        lines.append(f"{name} {digest(obj)}")
        print(lines[-1])
    print("all", digest("\n".join(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
