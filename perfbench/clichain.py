"""The README's command-line chain, called in-process: the cli-512 workload.

Each pass runs twelve verbs on toy and the same twelve on bhz
--noncanonical, at the CLI defaults (--grid 512).  The model bundles are
built at the CLI default seed 0, so the kept model-extract fault does not
depend on the benchmark seed; the benchmark seed is the --seed of the two
roundtrip verbs.  Bundles live in one work directory that stays at the same
path for the whole run, so stdout can be compared byte for byte between
passes.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import re
import shutil
from pathlib import Path

from regpara import cli, library

# The md half; every other verb belongs to the model half.
MD_HALF_VERBS = ("md-build", "md-extract", "reconstruct")
VERBS = (
    "structure-validate", "bhz-enumerate", "bhz-transform", "model-build",
    "model-extract", "model-check", "md-build", "md-extract", "reconstruct",
    "roundtrip", "lambda-check", "norm-report",
)
CHAINS = (("toy", False), ("bhz", True))
ROUNDTRIP_TOL = 1e-8


@dataclasses.dataclass
class Inputs:
    workdir: Path
    commands: list          # (half, operation, argv)
    stdout: dict            # operation -> stdout of the first pass


def _chain(workdir: Path, name: str, noncanonical: bool, seed: int) -> list:
    S = library.structure(name, noncanonical=noncanonical)
    S.check_assumptions()
    flag = ["--noncanonical"] if noncanonical else []
    d = workdir / name
    M, B, D = str(d / "M"), str(d / "B"), str(d / "D")
    generator = min(S.plus_gens, key=lambda n: (S.plus_gens[n], n))
    noise = min(S.base_gens, key=lambda n: (S.base_gens[n], n))
    # write_model_bundle numbers Pi fields in sorted-name order, "1" excluded
    pi_index = sorted(n for n in S.base_gens if n != "1").index(noise)
    argv = {
        "structure-validate": ["--structure", name, *flag],
        "bhz-enumerate": ["--rule", name],
        "bhz-transform": ["--rule", name],
        "model-build": ["--structure", name, *flag, "--out", M],
        "model-extract": ["--model", M, "--out", B],
        "model-check": ["--model", M],
        "md-build": ["--model", M, "--gamma", "9/8", "--out", D],
        "md-extract": ["--model", M, "--md", D],
        "reconstruct": ["--model", M, "--md", D],
        "roundtrip": ["--structure", name, *flag, "--side", "both", "--seed", str(seed)],
        "lambda-check": ["--model", M, "--generator", generator],
        "norm-report": ["--field", f"{M}/pi/{pi_index:04d}.fld",
                        "--alpha", str(float(S.base_gens[noise]))],
    }
    return [("md" if verb in MD_HALF_VERBS else "model", f"{name}:{verb}", [verb, *argv[verb]])
            for verb in VERBS]


def setup(workload: str, seed: int, workdir: Path) -> Inputs:
    """Exports both structures, runs their assumption checks and lays out the
    command lines; the work directory is created empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = []
    for name, noncanonical in CHAINS:
        commands += _chain(workdir, name, noncanonical, seed)
    return Inputs(workdir, commands, {})


def before_pass(inp: Inputs) -> None:
    """Each pass writes its bundles afresh."""
    for name, _ in CHAINS:
        shutil.rmtree(inp.workdir / name, ignore_errors=True)


def run_verb(argv: list) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one verb."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def steps(inp: Inputs):
    return [(half, op, lambda r, argv=argv: run_verb(argv)) for half, op, argv in inp.commands]


def _known_extract_fault(text: str) -> bool:
    """model-extract at the default grid: only g-bracket slopes of product
    monomials read FAIL."""
    fails = [line for line in text.splitlines() if line.endswith(" FAIL")]
    return bool(fails) and all(
        line.startswith("g_bracket ") and re.search(r"[.^]", line.split()[1]) for line in fails
    )


def check_pass(inp: Inputs, r: dict) -> dict:
    out = {}
    for _half, op, _argv in inp.commands:
        rc, text, err = r[op]
        first = inp.stdout.setdefault(op, text)
        verb = op.split(":", 1)[1]
        if text != first:
            out[op] = ("stdout differs from the first pass", False)
        elif verb == "model-extract" and rc == 1 and _known_extract_fault(text):
            out[op] = ("g-bracket slopes of product monomials FAIL at the default grid", True)
        elif rc != 0:
            out[op] = (f"exit {rc}: {(err or text).strip()[-200:]}", False)
        elif verb == "roundtrip":
            m = re.search(r"^max_rel_err=(\S+)$", text, re.M)
            err = float(m.group(1)) if m else float("inf")
            out[op] = None if err <= ROUNDTRIP_TOL else (f"roundtrip max_rel_err {err}", False)
        else:
            out[op] = None
    return out


def check_once(inp: Inputs) -> dict:
    return {}


def teardown(inp: Inputs) -> None:
    shutil.rmtree(inp.workdir, ignore_errors=True)
