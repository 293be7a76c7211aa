"""Model and bracket bundles on disk.

A bundle is a directory holding a structure file, one binary field file per
generator, a `fields.txt` name map, a `config.txt` with tolerances and grid
parameters, and a `manifest.txt` with sha256 hashes of every other file.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

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
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _RETIRED_CONFIG_KEYS:
                continue
            if not hasattr(cfg, key):
                raise ValueError(f"{path}: unknown config key {key!r}")
            cur = getattr(cfg, key)
            setattr(cfg, key, type(cur)(value))
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


def verify_manifest(root) -> None:
    path = os.path.join(root, "manifest.txt")
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            digest, rel = line.split(None, 1)
            full = os.path.join(root, rel)
            if not os.path.exists(full):
                raise ValueError(f"bundle file missing: {rel}")
            actual = _sha256(full)
            if actual != digest:
                raise ValueError(f"bundle hash mismatch for {rel}")


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


def write_model_bundle(root, model: Model, cfg: Config) -> None:
    os.makedirs(root, exist_ok=True)
    write_structure(os.path.join(root, "structure.txt"), model.structure)
    write_config(os.path.join(root, "config.txt"), cfg)
    grid = model.grid
    lines = _write_field_map(
        root, "g", {n: Field(grid, v) for n, v in model.g.values.items()}
    )
    lines += _write_field_map(
        root, "pi", {n: Field(grid, v) for n, v in model.pi.items() if n != "1"}
    )
    with open(os.path.join(root, "fields.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    _write_manifest(root)


def read_model_bundle(root) -> tuple[Model, Config]:
    verify_manifest(root)
    S = read_structure(os.path.join(root, "structure.txt"))
    cfg = read_config(os.path.join(root, "config.txt"))
    grid = cfg.grid()
    g_values = {}
    pi_values = {}
    with open(os.path.join(root, "fields.txt"), "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            kind, rel, name = line.split(" ", 2)
            f = read_field(os.path.join(root, rel))
            if f.grid != grid:
                raise ValueError(f"{rel}: grid does not match bundle config")
            if kind == "g":
                g_values[name] = f.values
            else:
                pi_values[name] = f.values
    g = field_character(S, grid, g_values)
    return Model(S, grid, g, pi_values), cfg


def write_bracket_bundle(root, structure, named_fields: dict[str, Field], cfg: Config,
                         kind: str = "bracket", extra: dict[str, str] | None = None) -> None:
    os.makedirs(root, exist_ok=True)
    write_structure(os.path.join(root, "structure.txt"), structure)
    write_config(os.path.join(root, "config.txt"), cfg)
    lines = _write_field_map(root, kind, named_fields)
    with open(os.path.join(root, "fields.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    for name, text in (extra or {}).items():
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    _write_manifest(root)


def read_bracket_bundle(root) -> tuple[dict[str, Field], Config]:
    verify_manifest(root)
    cfg = read_config(os.path.join(root, "config.txt"))
    grid = cfg.grid()
    out = {}
    with open(os.path.join(root, "fields.txt"), "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            _kind, rel, name = line.split(" ", 2)
            f = read_field(os.path.join(root, rel))
            if f.grid != grid:
                raise ValueError(f"{rel}: grid does not match bundle config")
            out[name] = f
    return out, cfg
