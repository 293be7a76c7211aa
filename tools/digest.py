"""One sha256 per output of the benchmark's workloads, to show that a change
keeps every output bit-identical.

    python tools/digest.py

prints `<output> <sha256>` lines:

- `toy-1d-32k:<step>`, for every step of one pass of
  `perfbench/pipeline.py` at seed 1, then `toy-1d-32k:validate_md`, the
  (D)-mode md of that pass validated on its model (a step the pass leaves
  out in d = 1): arrays by their dtype, shape and bytes, reports by their
  lines, dicts entry by entry in the order of their keys' strings;
- `cli-512:<chain>:<verb>` for the exit status and stdout of every verb of
  both `perfbench/clichain.py` chains (roundtrip at seed 1), and
  `cli-512:<chain>/<file>` for every file the bundle verbs write;
- `demos:<script>` for the stdout of every script under `demos/`, run in
  this process;
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
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import clichain  # noqa: E402
import pipeline  # noqa: E402
from regpara.characters import Character  # noqa: E402
from regpara.models import Model  # noqa: E402
from regpara.translation import validate_md  # noqa: E402

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


def main() -> int:
    lines = []
    for name, obj in itertools.chain(pipeline_outputs(), cli_outputs(), demo_outputs()):
        lines.append(f"{name} {digest(obj)}")
        print(lines[-1])
    print("all", digest("\n".join(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
