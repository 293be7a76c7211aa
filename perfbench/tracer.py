"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each regpara layer (in the module
that defines them and in every module that imported them by name), patches
the numpy FFT entry points to count calls and hash forward inputs, and reads
`resource.getrusage` for minor page faults.  Nothing inside the package
changes; `uninstall` restores every attribute it replaced.

Spans are kept in memory as `(group, function, start, end, parent, pass)`
records and written out by the caller when the run ends.  A call into a
group that is already on the span stack (recursion, or `paraproduct` calling
`modified_paraproduct`) is passed through without a span, so `calls` counts
entries into a layer and inclusive times are never counted twice.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import os
import resource
import sys
import time

import numpy as np

from clichain import VERBS as CLI_VERBS

PAGE_MB = resource.getpagesize() / 2.0**20

# Layer groups and the functions that enter them: (module, attribute path).
GROUPS = {
    "models.build_g": [("regpara.models", "build_g")],
    "models.build_pi": [("regpara.models", "build_pi")],
    "models.extract_brackets": [("regpara.models", "extract_brackets")],
    "translation.validate_model": [("regpara.translation", "validate_model")],
    "translation.md_from_paracontrolled": [("regpara.translation", "md_from_paracontrolled")],
    "translation.validate_md": [("regpara.translation", "validate_md")],
    "translation.md_to_paracontrolled": [("regpara.translation", "md_to_paracontrolled")],
    "translation.reconstruction_report": [("regpara.translation", "reconstruction_report")],
    "translation.sampled_checks": [
        ("regpara.translation", "chen_residual"),
        ("regpara.translation", "lemma_gx_fx_residual"),
        ("regpara.translation", "lemma_gyx_f_residual"),
        ("regpara.translation", "third_formula_residual"),
    ],
    "paraproducts": [
        ("regpara.paraproducts", "paraproduct"),
        ("regpara.paraproducts", "modified_paraproduct"),
        ("regpara.paraproducts", "resonant"),
    ],
    "norms.holder_norm": [("regpara.norms", "holder_norm")],
    "norms.d_family_report": [("regpara.norms", "d_family_report")],
    "blocks.chi": [("regpara.blocks", "chi")],
    "grid.poly": [("regpara.grid", "Grid.poly")],
    "characters.eval": [
        ("regpara.characters", "Character.__call__"),
        ("regpara.characters", "f_character_values"),
        ("regpara.characters", "f_character_complement"),
        ("regpara.characters", "two_point"),
    ],
    "symbolic": [
        ("regpara.rules", "enumerate_basis"),
        ("regpara.rules", "export_structure"),
        ("regpara.rules", "check_d_canonical"),
        ("regpara.rules", "check_stronger_claim"),
        ("regpara.algebra", "ConcreteRegularityStructure.check_assumptions"),
        ("regpara.algebra", "ConcreteRegularityStructure.coassociativity_defect"),
        ("regpara.algebra", "ConcreteRegularityStructure.comodule_defect"),
        ("regpara.trees", "TreeAlgebra.to_canonical"),
        ("regpara.trees", "TreeAlgebra.to_noncanonical"),
    ],
    "bundles.io": [
        ("regpara.bundles", "write_model_bundle"),
        ("regpara.bundles", "read_model_bundle"),
        ("regpara.bundles", "write_bracket_bundle"),
        ("regpara.bundles", "read_bracket_bundle"),
        ("regpara.structure_io", "read_structure"),
        ("regpara.structure_io", "write_structure"),
        ("regpara.structure_io", "read_rule"),
        ("regpara.grid", "read_field"),
        ("regpara.grid", "write_field"),
    ],
}

# One group per CLI verb, entered through its cmd_* function.
GROUPS.update({f"cli.{verb}": [("regpara.cli", "cmd_" + verb.replace("-", "_"))]
               for verb in CLI_VERBS})

# Groups whose minor page faults are reported per pass, under these names.
FAULT_GROUPS = {
    "models.extract_brackets": "extract",
    "translation.validate_model": "validate",
    "translation.md_to_paracontrolled": "md_to",
}

FFT_FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn")
FFT_INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn", "hfft", "ihfft")


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "bundles.bytes":
        return "B"
    if metric == "fft.distinct_ratio":
        return "ratio"
    return "count"


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _tree_bytes(path) -> int:
    """Size of a file, or of every file below a directory."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class PassStats:
    """Counters and times of one traced pass."""

    def __init__(self):
        self.calls = {g: 0 for g in GROUPS}
        self.total = {g: 0.0 for g in GROUPS}
        self.self_time = {g: 0.0 for g in GROUPS}
        self.faults = {name: 0 for name in FAULT_GROUPS.values()}
        self.io_bytes = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_forward = 0
        self.fft_inputs: set[bytes] = set()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = PassStats()
        self._stack: list[list] = []   # [group, start, child_time, overhead_at_start, span_id]
        self._active: set[str] = set()
        self._overhead = 0.0           # seconds spent in the tracer's own bookkeeping
        self._patched: list[tuple] = []
        self.pass_index = 0

    # -- passes -------------------------------------------------------------

    def start_pass(self, index: int) -> None:
        self.stats = PassStats()
        self.pass_index = index

    # -- spans --------------------------------------------------------------

    def _enter(self, group: str) -> list:
        frame = [group, time.perf_counter(), 0.0, self._overhead, len(self.spans)]
        self.spans.append(None)  # placeholder, filled on exit
        self._stack.append(frame)
        self._active.add(group)
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        group, start, child, ov0, span_id = frame
        dur = (end - start) - (self._overhead - ov0)
        self._stack.pop()
        self._active.discard(group)
        st = self.stats
        st.calls[group] += 1
        st.total[group] += dur
        st.self_time[group] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans[span_id] = (group, name, start, end, parent[4] if parent else -1,
                               self.pass_index)

    def _wrap(self, group: str, fn, name: str):
        fault_key = FAULT_GROUPS.get(group)
        is_io = group == "bundles.io"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group in self._active:
                return fn(*args, **kwargs)
            f0 = _minflt() if fault_key else 0
            frame = self._enter(group)
            try:
                return fn(*args, **kwargs)
            finally:
                if is_io:
                    b0 = time.perf_counter()
                    path = args[0] if args else None
                    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                        self.stats.io_bytes += _tree_bytes(path)
                    self._overhead += time.perf_counter() - b0
                self._exit(frame, name)
                if fault_key:
                    self.stats.faults[fault_key] += _minflt() - f0

        return traced

    def _wrap_fft(self, fn, forward: bool):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            st = self.stats
            st.fft_calls += 1
            st.fft_points += int(np.size(a))
            if forward:
                h0 = time.perf_counter()
                # + 0.0 turns -0.0 into 0.0: the sign of a zero depends on
                # the data, and would make equal inputs look distinct
                arr = np.ascontiguousarray(a) + 0.0
                digest = hashlib.blake2b(arr.data, digest_size=16)
                digest.update(repr((arr.shape, arr.dtype.str)).encode())
                st.fft_forward += 1
                st.fft_inputs.add(digest.digest())
                self._overhead += time.perf_counter() - h0
            return fn(a, *args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind `original` to `replacement` in every regpara module (and the
        top-level package) that holds it under the same name."""
        name = original.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "regpara" or modname.startswith("regpara.")):
                continue
            if getattr(mod, name, None) is original:
                self._patched.append((mod, name, original))
                setattr(mod, name, replacement)

    def install(self) -> None:
        import numpy.fft as npfft

        for group, entries in GROUPS.items():
            for modname, attr in entries:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(group, original, attr))
                else:
                    original = getattr(mod, attr)
                    self._replace_everywhere(original, self._wrap(group, original, attr))
        for name in FFT_FORWARD + FFT_INVERSE:
            original = getattr(npfft, name)
            self._patched.append((npfft, name, original))
            setattr(npfft, name, self._wrap_fft(original, name in FFT_FORWARD))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def pass_metrics(self, pass_faults: int) -> dict[str, float]:
        """Per-layer metrics of the pass just finished."""
        st = self.stats
        out: dict[str, float] = {}
        for group in GROUPS:
            if group in ("paraproducts", "norms.holder_norm", "norms.d_family_report"):
                out[f"{group}.calls"] = st.calls[group]
                out[f"{group}.self_s"] = st.self_time[group]
            elif group in ("blocks.chi", "grid.poly", "characters.eval"):
                out[f"{group}.calls"] = st.calls[group]
                out[f"{group}.s"] = st.total[group]
            else:
                out[f"{group}.s"] = st.total[group]
        out["bundles.bytes"] = st.io_bytes
        out["fft.calls"] = st.fft_calls
        out["fft.points"] = st.fft_points
        out["fft.distinct_ratio"] = (
            len(st.fft_inputs) / st.fft_forward if st.fft_forward else 1.0
        )
        out["mem.fault_mb"] = pass_faults * PAGE_MB
        for name, faults in st.faults.items():
            out[f"{name}.fault_mb"] = faults * PAGE_MB
        return out
