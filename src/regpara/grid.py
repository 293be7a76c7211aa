"""Periodic grids, sampled fields, and the binary field file format.

Fields live on a uniform grid over the box [-L, L)^d with periodic wrap.
Polynomial evaluations use true box coordinates, not the periodic angle, so
x^k keeps its meaning for characters and models.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

FIELD_MAGIC = b"RPF1"

# Relative width of the boundary collar on which coordinate fields are
# smoothly flattened; inside |x| <= (1 - COORD_MARGIN) * box they equal the
# true box coordinates.
COORD_MARGIN = 0.15


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C^5 polynomial step: exactly 0 for t <= 0, exactly 1 for t >= 1.

    The moderate-order polynomial profile keeps spectral kernel tails thin at
    desk-scale resolutions (an exponential step is formally C^inf but its
    huge derivatives make the finite-N kernel moments useless).
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**6 * (462.0 + t * (-1980.0 + t * (3465.0 + t * (-3080.0 + t * (1386.0 - t * 252.0)))))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: `n` points per axis on [-box, box)^d."""

    dim: int
    n: int
    box: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 4, got {self.n}")
        if not self.box > 0:
            raise ValueError(f"box half-width must be positive, got {self.box}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def step(self) -> float:
        return 2.0 * self.box / self.n

    @property
    def freq_step(self) -> float:
        return np.pi / self.box

    def axis(self) -> np.ndarray:
        return -self.box + self.step * np.arange(self.n)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Raw coordinate arrays, each of shape `self.shape`."""
        ax = self.axis()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    @functools.lru_cache(maxsize=32)
    def coord_fields(self) -> tuple[np.ndarray, ...]:
        """Smooth-periodic coordinate fields, computed once per grid (read-only).

        The true coordinate is flattened to zero across a boundary collar and
        then mollified by a spectral Gaussian (scale a few frequency steps).
        Mollification reproduces affine functions exactly, so the field equals
        the true coordinate in the interior up to Gaussian-small tails, while
        its spectrum is concentrated in the lowest blocks; polynomial factors
        therefore never feed wrap artifacts into the spectral calculus."""
        ax = self.axis()
        w = smooth_step((self.box - np.abs(ax)) / (COORD_MARGIN * self.box))
        xw = ax * w
        damp_scale = 3.0 * (np.pi / self.box)
        freqs = np.fft.rfftfreq(self.n, d=1.0 / self.n) * self.freq_step
        damped = np.fft.irfft(np.fft.rfft(xw) * np.exp(-((freqs / damp_scale) ** 2)), n=self.n)
        out = (damped,) if self.dim == 1 else tuple(np.meshgrid(damped, damped, indexing="ij"))
        for x in out:
            x.setflags(write=False)
        return out

    def max_freq_radius(self) -> float:
        return float(self.freq_step * (self.n // 2) * np.sqrt(self.dim))

    def poly(self, k: tuple[int, ...]) -> np.ndarray:
        """Monomial x^k sampled on the grid: true box coordinates on the
        interior, smooth-periodic through the boundary collar."""
        if len(k) != self.dim:
            raise ValueError(f"multi-index {k} does not match dim {self.dim}")
        out = np.ones(self.shape)
        for x, ki in zip(self.coord_fields(), k):
            if ki:
                out = out * x**ki
        return out

    def weight(self, a: float) -> np.ndarray:
        """|x|_*^a = (1+|x|)^a on the grid."""
        r = np.sqrt(sum(x**2 for x in self.coords()))
        return (1.0 + r) ** a


class Field:
    """Real-valued function sampled on a Grid.

    `preimage` is set when the field was produced as |grad|^m of another
    field (m > 0); block -1 of a negative-order multiplier is only defined
    through it.  `spectrum` is the half spectrum rfftn(values), taken on
    first use and kept, so a field passed to several spectral operations is
    transformed once.  `_rows` is None, or, while a caller holds the field
    as a paraproduct operand, the dict its operand rows are kept in
    (`paraproducts.hold_rows`).
    """

    __slots__ = ("grid", "values", "preimage", "_spectrum", "_rows")

    def __init__(self, grid: Grid, values: np.ndarray, preimage: "Field | None" = None):
        self._set(grid, np.array(values, dtype=float, order="C"), preimage)

    @classmethod
    def adopt(cls, grid: Grid, values: np.ndarray, preimage: "Field | None" = None) -> "Field":
        """A field over `values`, a float array made for it that no one else
        holds: it is frozen in place instead of copied."""
        out = cls.__new__(cls)
        out._set(grid, values, preimage)
        return out

    def _set(self, grid: Grid, values: np.ndarray, preimage) -> None:
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.preimage = preimage
        self._spectrum = None
        self._rows = None

    @property
    def spectrum(self) -> np.ndarray:
        """rfftn of the values, computed once (read-only)."""
        spec = self._spectrum
        if spec is None:
            spec = np.fft.rfft(self.values) if self.grid.dim == 1 else np.fft.rfftn(self.values)
            spec.setflags(write=False)
            self._spectrum = spec
        return spec

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls.constant(grid, 0.0)

    def _binary(self, other, op) -> "Field":
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            other = other.values
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return Field(self.grid, np.asarray(other, dtype=float) - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        return f"Field(grid={self.grid}, sup={self.sup():.4g})"


class TwoParamField:
    """Function of two grid points.

    Dense storage (shape grid.shape * 2, first index block = x, second = y)
    is only supported for d=1; d=2 callers work with sampled pair lists.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        if grid.dim != 1:
            raise ValueError("dense two-parameter fields require dim 1")
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"values shape {values.shape} != {(grid.n, grid.n)}")
        if not np.all(np.isfinite(values)):
            raise ValueError("two-parameter field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def separable(cls, f: Field, g: Field) -> "TwoParamField":
        """Lambda(y, z) = f(y) g(z)."""
        if f.grid != g.grid:
            raise ValueError("grid mismatch")
        return cls(f.grid, np.outer(f.values, g.values))


def field_bytes(f: Field) -> bytes:
    """Binary format: magic, u32 dim, u32 n, f64 box, n^d little-endian f64."""
    return (FIELD_MAGIC + struct.pack("<IId", f.grid.dim, f.grid.n, f.grid.box)
            + f.values.astype("<f8").tobytes(order="C"))


def write_field(path, f: Field) -> None:
    with open(path, "wb") as fh:
        fh.write(field_bytes(f))


def parse_field(data: bytes, source) -> Field:
    """The field in `data`: a field file's bytes, in a bundle the ones read
    once and checked against the manifest.  Header and byte count are
    checked first, so malformed bytes name `source` and the byte counts.
    The Field copies the payload, so `data` can go once it is formed."""
    if data[:4] != FIELD_MAGIC:
        raise ValueError(f"{source}: bad magic {data[:4]!r}, expected {FIELD_MAGIC!r}")
    if len(data) < 20:
        raise ValueError(f"{source}: {len(data)} bytes, expected at least a 20-byte header")
    dim, n, box = struct.unpack_from("<IId", data, 4)
    try:
        grid = Grid(dim, n, box)
    except ValueError as exc:
        raise ValueError(f"{source}: bad header: {exc}") from None
    expected = 20 + 8 * grid.size
    if len(data) != expected:
        raise ValueError(f"{source}: {len(data)} bytes, expected {expected} for dim {dim}, n {n}")
    return Field(grid, np.frombuffer(data, dtype="<f8", offset=20).reshape(grid.shape))


def read_field(path) -> Field:
    """The field in the file at path, read once and parsed by parse_field."""
    with open(path, "rb") as fh:
        return parse_field(fh.read(), path)
