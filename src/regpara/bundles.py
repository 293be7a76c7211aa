"""Model and bracket bundles on disk.

A bundle is a directory holding a structure file, one binary field file per
generator, a `fields.txt` name map, a `config.txt` with tolerances and grid
parameters, and a `manifest.txt` with the sha256 of every other file.

Each file passes through memory once: the writer hashes the bytes it
writes, and the reader reads each listed file once, parses the bytes whose
sha256 it checked and lets a field file's bytes go once its Field is
formed.  A reader opens no file the manifest does not list, so a bundle's
structure cannot reference a rule file.
"""
from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass, fields

import numpy as np

from .characters import field_character
from .grid import Field, Grid, field_bytes, parse_field
from .models import Model
from .structure_io import content_lines, parse_structure, structure_text


@dataclass
class Config:
    """Run configuration: grid, paraproduct order, seed, slope tolerance."""

    dim: int = 1
    n: int = 512
    box: float = float(np.pi)
    m: int = -1          # -1: use the structure default ceil(cutoff)+1
    seed: int = 0
    tol_slope: float = 0.2

    def grid(self) -> Grid:
        return Grid(self.dim, self.n, self.box)

    def lines(self) -> list[str]:
        out = []
        for name in ("dim", "n", "box", "m", "seed", "tol_slope"):
            out.append(f"{name}={getattr(self, name)}")
        return out


# Keys that older bundles wrote and no reader reads; skipped on read.
_RETIRED_CONFIG_KEYS = ("fit_lo", "fit_hi", "tol_rel")


def parse_config(text: str, source) -> Config:
    """The config in `text`, lines as Config.lines() writes them; an error
    names `source`.  A bundle's reader passes the config.txt bytes it read
    once and checked against the manifest."""
    cfg = Config()
    for _line_no, line in content_lines(text):
        key, value = line.split("=", 1) if "=" in line else (line, "")
        key = key.strip()
        value = value.strip()
        if key in _RETIRED_CONFIG_KEYS:
            continue
        if key not in {f.name for f in fields(cfg)}:
            raise ValueError(f"{source}: unknown config key {key!r}")
        kind = type(getattr(cfg, key))
        try:
            setattr(cfg, key, kind(value))
        except ValueError:
            raise ValueError(f"{source}: config key {key!r}: cannot read {value!r} "
                             f"as {kind.__name__}") from None
    return cfg


def read_config(path) -> Config:
    """The config file at path, read once and parsed by parse_config."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path)


def _bundle_lines(path, text, count):
    """(where, fields) of each non-blank line of `text`, the file at path:
    `count` fields, the last of which may hold spaces, the second a path
    inside the bundle root; `where` names the file, line number and text."""
    for line_no, raw in enumerate(io.StringIO(text, newline=None), 1):
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


def _write_bundle(root, structure, cfg: Config, array_maps, extra=None) -> None:
    """Structure, config, one field file on the config's grid per entry of
    each (sub, named arrays) pair, formed as it is written, the `fields.txt`
    naming them and the extra text files, each written once, then the
    manifest of the sha256 of those bytes."""
    digests = {}
    grid = cfg.grid()

    def put(rel, data: bytes) -> None:
        with open(os.path.join(root, rel), "wb") as fh:
            fh.write(data)
        digests[rel] = hashlib.sha256(data).hexdigest()

    os.makedirs(root, exist_ok=True)
    put("structure.txt", structure_text(structure).encode())
    put("config.txt", "".join(line + "\n" for line in cfg.lines()).encode())
    lines = []
    for sub, named_arrays in array_maps:
        os.makedirs(os.path.join(root, sub), exist_ok=True)
        for i, (name, values) in enumerate(sorted(named_arrays.items())):
            rel = f"{sub}/{i:04d}.fld"
            lines.append(f"{sub} {rel} {name}\n")
            put(rel, field_bytes(grid, values))
    put("fields.txt", "".join(lines).encode())
    for name, text in (extra or {}).items():
        put(name, (text if text.endswith("\n") else text + "\n").encode())
    with open(os.path.join(root, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{digests[rel]}  {rel}\n" for rel in sorted(digests)))


def _read_bundle(root) -> tuple[list[tuple[str, str, Field]], Config, str, dict[str, str]]:
    """(sub, name, field) of every `fields.txt` entry, on the config's grid,
    the config, the text of structure.txt and the stripped text of each
    other top-level file that the manifest lists.  Only listed files are
    opened, each once, the ones no reader parses too; their bytes are
    parsed only once they match their sha256."""
    path = os.path.join(root, "manifest.txt")
    with open(path, "r", encoding="utf-8") as fh:
        digests = {rel: digest for _where, (digest, rel) in _bundle_lines(path, fh.read(), 2)}
    unread = set(digests)

    def read(rel) -> bytes:
        if rel not in digests:
            raise ValueError(f"{root}: {rel} is not in the manifest")
        if rel not in unread:
            raise ValueError(f"{root}: {rel} is named twice")
        unread.remove(rel)
        if not os.path.exists(os.path.join(root, rel)):
            raise ValueError(f"bundle file missing: {rel}")
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != digests[rel]:
            raise ValueError(f"bundle hash mismatch for {rel}")
        return data

    cfg = parse_config(read("config.txt").decode(), os.path.join(root, "config.txt"))
    grid = cfg.grid()
    entries = []
    path = os.path.join(root, "fields.txt")
    for where, (sub, rel, name) in _bundle_lines(path, read("fields.txt").decode(), 3):
        if rel not in digests:
            raise ValueError(f"{where}: field file not in the manifest")
        f = parse_field(read(rel), os.path.join(root, rel))
        if f.grid != grid:
            raise ValueError(f"{rel}: grid does not match bundle config")
        entries.append((sub, name, f))
    structure = read("structure.txt").decode()
    extra = {name: read(name).decode().strip() for name in sorted(unread) if "/" not in name}
    for rel in sorted(unread):
        read(rel)
    return entries, cfg, structure, extra


def write_model_bundle(root, model: Model, cfg: Config) -> None:
    """The g and Pi arrays of model, on the grid of cfg, the model's."""
    _write_bundle(root, model.structure, cfg, [
        ("g", model.g.values),
        ("pi", {n: v for n, v in model.pi.items() if n != "1"}),
    ])


def read_model_bundle(root) -> tuple[Model, Config]:
    entries, cfg, structure, _extra = _read_bundle(root)
    S = parse_structure(structure, os.path.join(root, "structure.txt"), None)
    grid = cfg.grid()
    g_values = {name: f.values for sub, name, f in entries if sub == "g"}
    pi_values = {name: f.values for sub, name, f in entries if sub != "g"}
    g = field_character(S, grid, g_values)
    return Model(S, grid, g, pi_values), cfg


def write_bracket_bundle(root, structure, named_arrays: dict[str, np.ndarray], cfg: Config,
                         kind: str = "bracket", extra: dict[str, str] | None = None) -> None:
    """The named arrays, on the grid of cfg, and the extra text files."""
    _write_bundle(root, structure, cfg, [(kind, named_arrays)], extra)


def read_bracket_bundle(root) -> tuple[dict[str, Field], Config, dict[str, str]]:
    """The named fields, the config, and the stripped text of each extra
    file of write_bracket_bundle: every other file that the manifest lists
    at the bundle's top level."""
    entries, cfg, _structure, extra = _read_bundle(root)
    return {name: f for _sub, name, f in entries}, cfg, extra
