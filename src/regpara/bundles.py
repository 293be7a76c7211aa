"""Model and bracket bundles on disk.

A bundle is a directory holding a structure file, one binary field file per
generator, a `fields.txt` name map, a `config.txt` with tolerances and grid
parameters, and a `manifest.txt` with sha256 hashes of every other file.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields

import numpy as np

from .characters import field_character
from .grid import Field, Grid, read_field, write_field
from .models import Model
from .structure_io import read_structure, write_structure


@dataclass
class Config:
    """Run configuration: grid, paraproduct order, seed, tolerances."""

    dim: int = 1
    n: int = 512
    box: float = float(np.pi)
    m: int = -1          # -1: use the structure default ceil(cutoff)+1
    seed: int = 0
    tol_slope: float = 0.2
    tol_rel: float = 1e-8

    def grid(self) -> Grid:
        return Grid(self.dim, self.n, self.box)

    def lines(self) -> list[str]:
        out = []
        for name in ("dim", "n", "box", "m", "seed", "tol_slope", "tol_rel"):
            out.append(f"{name}={getattr(self, name)}")
        return out


def write_config(path, cfg: Config) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(cfg.lines()) + "\n")


# Keys that older bundles wrote (a fit window no estimator read); skipped on read.
_RETIRED_CONFIG_KEYS = ("fit_lo", "fit_hi")


def read_config(path) -> Config:
    cfg = Config()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = line.split("=", 1) if "=" in line else (line, "")
            key = key.strip()
            value = value.strip()
            if key in _RETIRED_CONFIG_KEYS:
                continue
            if key not in {f.name for f in fields(cfg)}:
                raise ValueError(f"{path}: unknown config key {key!r}")
            kind = type(getattr(cfg, key))
            try:
                setattr(cfg, key, kind(value))
            except ValueError:
                raise ValueError(f"{path}: config key {key!r}: cannot read {value!r} "
                                 f"as {kind.__name__}") from None
    return cfg


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(root) -> None:
    entries = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            if fn == "manifest.txt":
                continue
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, root)
            entries.append((rel.replace(os.sep, "/"), _sha256(full)))
    entries.sort()
    with open(os.path.join(root, "manifest.txt"), "w", encoding="utf-8") as fh:
        for rel, digest in entries:
            fh.write(f"{digest}  {rel}\n")


def _bundle_lines(root, name, count):
    """(where, fields) of each non-blank line of root/name: `count` fields,
    the last of which may hold spaces, the second a path inside the bundle
    root; `where` names the file, the line number and the text."""
    path = os.path.join(root, name)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(None, count - 1)
            where = f"{path} line {line_no} {line!r}"
            if len(parts) != count:
                raise ValueError(f"{where}: malformed line")
            if os.path.isabs(parts[1]):
                raise ValueError(f"{where}: absolute path")
            if os.path.normpath(parts[1]).split(os.sep)[0] == os.pardir:
                raise ValueError(f"{where}: path leaves the bundle")
            yield where, parts


def verify_manifest(root) -> set[str]:
    """The paths that the manifest lists, each checked against its sha256."""
    listed = set()
    for _where, (digest, rel) in _bundle_lines(root, "manifest.txt", 2):
        full = os.path.join(root, rel)
        if not os.path.exists(full):
            raise ValueError(f"bundle file missing: {rel}")
        if _sha256(full) != digest:
            raise ValueError(f"bundle hash mismatch for {rel}")
        listed.add(rel)
    return listed


def _write_field_map(root, sub, named_fields) -> list[str]:
    os.makedirs(os.path.join(root, sub), exist_ok=True)
    lines = []
    for i, (name, f) in enumerate(sorted(named_fields.items())):
        if not isinstance(f, Field):
            raise TypeError("expected Field values")
        rel = f"{sub}/{i:04d}.fld"
        lines.append(f"{sub} {rel} {name}")
        write_field(os.path.join(root, rel), f)
    return lines


# The files of every bundle besides its field files.
_BUNDLE_FILES = ("structure.txt", "config.txt", "fields.txt")


def _write_bundle(root, structure, cfg: Config, field_maps, extra=None) -> None:
    """Structure, config, one field map per (sub, named fields) pair, the
    `fields.txt` naming them, the extra text files, then the manifest."""
    os.makedirs(root, exist_ok=True)
    write_structure(os.path.join(root, "structure.txt"), structure)
    write_config(os.path.join(root, "config.txt"), cfg)
    lines = []
    for sub, named_fields in field_maps:
        lines += _write_field_map(root, sub, named_fields)
    with open(os.path.join(root, "fields.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    for name, text in (extra or {}).items():
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    _write_manifest(root)


def _listed(root, listed: set[str], name: str) -> str:
    """The path of root/name, a file that the verified manifest must list."""
    if name not in listed:
        raise ValueError(f"{root}: {name} is not in the manifest")
    return os.path.join(root, name)


def _read_bundle(root) -> tuple[list[tuple[str, str, Field]], Config, set[str]]:
    """(sub, name, field) of every `fields.txt` entry, each a file that the
    verified manifest lists and on the config's grid, the config, and the
    paths the manifest lists.  Every file a reader opens must be listed."""
    listed = verify_manifest(root)
    cfg = read_config(_listed(root, listed, "config.txt"))
    grid = cfg.grid()
    entries = []
    _listed(root, listed, "fields.txt")
    for where, (sub, rel, name) in _bundle_lines(root, "fields.txt", 3):
        if rel not in listed:
            raise ValueError(f"{where}: field file not in the manifest")
        f = read_field(os.path.join(root, rel))
        if f.grid != grid:
            raise ValueError(f"{rel}: grid does not match bundle config")
        entries.append((sub, name, f))
    return entries, cfg, listed


def write_model_bundle(root, model: Model, cfg: Config) -> None:
    grid = model.grid
    _write_bundle(root, model.structure, cfg, [
        ("g", {n: Field(grid, v) for n, v in model.g.values.items()}),
        ("pi", {n: Field(grid, v) for n, v in model.pi.items() if n != "1"}),
    ])


def read_model_bundle(root) -> tuple[Model, Config]:
    entries, cfg, listed = _read_bundle(root)
    S = read_structure(_listed(root, listed, "structure.txt"))
    grid = cfg.grid()
    g_values = {name: f.values for sub, name, f in entries if sub == "g"}
    pi_values = {name: f.values for sub, name, f in entries if sub != "g"}
    g = field_character(S, grid, g_values)
    return Model(S, grid, g, pi_values), cfg


def write_bracket_bundle(root, structure, named_fields: dict[str, Field], cfg: Config,
                         kind: str = "bracket", extra: dict[str, str] | None = None) -> None:
    _write_bundle(root, structure, cfg, [(kind, named_fields)], extra)


def read_bracket_bundle(root) -> tuple[dict[str, Field], Config, dict[str, str]]:
    """The named fields, the config, and the stripped text of each extra
    file of write_bracket_bundle: every other file that the manifest lists
    at the bundle's top level."""
    entries, cfg, listed = _read_bundle(root)
    extra = {}
    for name in sorted(listed - set(_BUNDLE_FILES)):
        if "/" not in name:
            with open(os.path.join(root, name), "r", encoding="utf-8") as fh:
                extra[name] = fh.read().strip()
    return {name: f for _sub, name, f in entries}, cfg, extra
