"""Dyadic Littlewood-Paley decomposition and the spectral layer.

The radial cutoff chi is a smooth exponential step, identically 1 for
r <= 4/3 and identically 0 for r >= 3/2.  Blocks are

    rho_{-1}(xi) = chi(|xi|),      rho_j(xi) = chi(2^{-(j+1)}|xi|) - chi(2^{-j}|xi|),

which telescope exactly, so the partition of unity holds to rounding error
on every lattice frequency.  Block j >= 0 is supported in the annulus
[4/3, 3] * 2^j, hence rho_i * rho_j = 0 for |i - j| >= 2, and the low-pass
S_j = sum_{i < j-1} Delta_i has symbol chi(2^{-(j-1)}|xi|) for j >= 1 and
vanishes for j <= 0.

Every spectral operation of the package goes through the BlockDecomposition
of its grid, one per grid.  Fields are real, so transforms are
rfftn/irfftn on the half spectrum, and every symbol in use is radial or a
per-axis product, so it lives on the half spectrum only.
"""
from __future__ import annotations

import functools

import numpy as np

from .grid import Field, Grid, smooth_step

CHI_LO = 4.0 / 3.0
CHI_HI = 3.0 / 2.0
ANNULUS_LO = CHI_LO            # inner radius of the block-0 annulus
ANNULUS_HI = 2.0 * CHI_HI     # outer radius of the block-0 annulus


def chi(r: np.ndarray) -> np.ndarray:
    """Smooth radial step: exactly 1 on r <= 4/3, exactly 0 on r >= 3/2."""
    r = np.asarray(r, dtype=float)
    return 1.0 - smooth_step((r - CHI_LO) / (CHI_HI - CHI_LO))


class BlockDecomposition:
    """Spectral plan of one grid: real FFTs and the dyadic symbols.

    The only symbol stack held is the chi ladder on the half spectrum,
    ladder[k] = chi(2^{-k}|xi|) for k = 0..J+1; block and low-pass symbols
    are differences of its rows, so rho_j is the same subtraction in every
    caller.  Methods named half_* return half-spectrum symbols (read-only
    when cached); `rho`, `low_symbol` and `multipliers` return full-lattice
    arrays for callers that inspect symbols directly.
    """

    def __init__(self, grid: Grid, j_max: int):
        self.grid = grid
        self.j_max = j_max
        n = grid.n
        # numpy's lattice convention, the Nyquist frequency counted as -n/2,
        # on every axis; the last one keeps its first n/2 + 1 entries.  Open
        # grids: axis a varies along dimension a only.
        f = np.fft.fftfreq(n, d=1.0 / n) * grid.freq_step
        self.freqs = tuple(
            (f if a < grid.dim - 1 else f[: n // 2 + 1]).reshape(
                [-1 if i == a else 1 for i in range(grid.dim)]
            )
            for a in range(grid.dim)
        )
        self.radius = np.sqrt(sum(f**2 for f in self.freqs))
        self.ladder = np.stack([chi(self.radius / 2.0**k) for k in range(j_max + 2)])
        self.ladder.setflags(write=False)
        self._powers: dict[int, np.ndarray] = {}
        # full-lattice index -> half-spectrum index along the last axis
        self._mirror = np.minimum(np.arange(n), n - np.arange(n))

    @property
    def js(self) -> range:
        return range(-1, self.j_max + 1)

    # -- transforms ----------------------------------------------------------

    def rfft(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values)

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spec, s=self.grid.shape, axes=tuple(range(self.grid.dim)))

    def apply(self, sym, f: Field) -> Field:
        """The Fourier multiplier with half-spectrum symbol `sym` applied to f."""
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        return Field(self.grid, self.irfft(sym * self.rfft(f.values)))

    # -- half-spectrum symbols -----------------------------------------------

    def half_band(self, lo: int, hi: int) -> np.ndarray:
        """Symbol of sum_{lo <= j <= hi} Delta_j; blocks outside -1..J are empty."""
        lo, hi = max(lo, -1), min(hi, self.j_max)
        if hi < lo:
            return np.zeros(self.radius.shape)
        top = self.ladder[hi + 1]
        return top if lo == -1 else top - self.ladder[lo]

    def half_rho(self, j: int) -> np.ndarray:
        if j < -1 or j > self.j_max:
            raise ValueError(f"block index {j} outside [-1, {self.j_max}]")
        return self.half_band(j, j)

    def half_low(self, j: int) -> np.ndarray:
        """Symbol of S_j = sum_{i < j-1} Delta_i (zero for j <= 0)."""
        return self.half_band(-1, j - 2)

    def half_power(self, m: int) -> np.ndarray:
        """|xi|^m, set to 0 at xi = 0 when m < 0."""
        sym = self._powers.get(m)
        if sym is None:
            sym = np.zeros(self.radius.shape)
            np.power(self.radius, float(m), out=sym, where=self.radius > 0)
            sym.setflags(write=False)
            self._powers[m] = sym
        return sym

    def half_gauss(self, j: int) -> np.ndarray:
        """Gaussian low-pass window at scale 2^j, used by slope estimators.

        On the integer frequency lattice forced by the box size, compactly
        supported profiles are under-sampled at small j and their real-space
        kernels have fat tails; the Gaussian's periodization stays thin at
        every lattice granularity, so pairings against it scale cleanly.
        """
        return np.exp(-((self.radius / 2.0**j) ** 2))

    def half_derivative(self, k: tuple[int, ...]):
        """Symbol of d^k, (i xi)^k, as the full lattice applies it to a real
        field: a mode and its mirror image sum to a real wave, and on a mode
        that is its own mirror along the Nyquist axes the two cancel when the
        orders along those axes add up to an odd number."""
        sym, parity = 1.0, 1.0
        for xi, ki in zip(self.freqs, k):
            if ki:
                sym = sym * (1j * xi) ** ki
                if ki % 2:
                    parity = parity * np.where(xi == xi.flat[self.grid.n // 2], -1.0, 1.0)
        return sym * (1.0 + parity) / 2.0

    # -- full-lattice views ----------------------------------------------------

    def full(self, sym: np.ndarray) -> np.ndarray:
        """A radial half-spectrum symbol on the full frequency lattice."""
        return np.broadcast_to(sym, self.radius.shape)[..., self._mirror]

    def rho(self, j: int) -> np.ndarray:
        return self.full(self.half_rho(j))

    def low_symbol(self, j: int) -> np.ndarray:
        """Symbol of S_j = sum_{i < j-1} Delta_i (zero for j <= 0)."""
        return self.full(self.half_low(j))

    @property
    def multipliers(self) -> np.ndarray:
        """rho_{-1..J} stacked, shape (j_max + 2, *grid.shape)."""
        return np.stack([self.rho(j) for j in self.js])


@functools.lru_cache(maxsize=32)
def spectral_plan(grid: Grid) -> BlockDecomposition:
    """The grid's plan, at the depth where the top block reaches the corner
    of the frequency lattice."""
    j_top = 1
    while CHI_LO * 2.0**j_top < grid.max_freq_radius():
        j_top += 1
    return BlockDecomposition(grid, j_top)


def make_partition(grid: Grid) -> BlockDecomposition:
    """Dyadic partition of unity on the grid's frequency lattice."""
    plan = spectral_plan(grid)
    if plan.j_max < 3:
        raise ValueError(
            f"grid with n={grid.n}, box={grid.box} cannot host one annulus "
            f"(J={plan.j_max} < 3); increase n"
        )
    return plan


def lp_block(decomp: BlockDecomposition, j: int, f: Field) -> Field:
    """Delta_j f via spectral multiplication."""
    return decomp.apply(decomp.half_rho(j), f)


def low_pass(decomp: BlockDecomposition, j: int, f: Field) -> Field:
    """S_j f = sum_{i < j-1} Delta_i f (strict low-pass convention)."""
    if f.grid != decomp.grid:
        raise ValueError("grid mismatch")
    if j <= 0:
        return Field.zero(f.grid)
    return decomp.apply(decomp.half_low(j), f)


class LowShellError(ValueError):
    """Negative-order multiplier applied to a field with low-frequency mass."""


def fourier_multiplier(m: int, f: Field) -> Field:
    """|grad|^m f.

    For m < 0 the spectrum must vanish below the block-0 annulus (checked);
    the offending shell is named in the error.  For m > 0 the result carries
    `f` as its preimage tag.
    """
    if m == 0:
        return f
    plan = spectral_plan(f.grid)
    spec = plan.rfft(f.values)
    if m > 0:
        return Field(f.grid, plan.irfft(plan.half_power(m) * spec), preimage=f)
    low = plan.radius < ANNULUS_LO
    mass = np.max(np.abs(spec[low])) if np.any(low) else 0.0
    scale = np.max(np.abs(spec))
    if scale > 0 and mass > 1e-10 * scale:
        raise LowShellError(
            f"|grad|^{m} undefined: spectral mass {mass:.3e} on the shell "
            f"|xi| < {ANNULUS_LO:.4g} (relative {mass / scale:.3e})"
        )
    return Field(f.grid, plan.irfft(plan.half_power(m) * spec))


def derivative(f: Field, k: tuple[int, ...]) -> Field:
    """Spectral partial derivative d^k f on the periodic grid."""
    if len(k) != f.grid.dim:
        raise ValueError(f"multi-index {k} does not match dim {f.grid.dim}")
    if not any(k):
        return f
    plan = spectral_plan(f.grid)
    return plan.apply(plan.half_derivative(k), f)


def j_operator(decomp: BlockDecomposition, j: int, k: tuple[int, ...], m: int, zeta: Field) -> Field:
    """J_j^{k,m}(zeta) = d^k |grad|^{-m} Delta_j zeta, in one multiplier.

    j = -1 requires zeta to carry a preimage tag xi with zeta = |grad|^m xi;
    the result is then d^k Delta_{-1} xi.
    """
    sym = decomp.half_rho(j)
    if j == -1 and m != 0:
        if zeta.preimage is None:
            raise ValueError(
                "J_{-1}^{k,m} needs a field of the form |grad|^m xi (preimage tag missing)"
            )
        zeta = zeta.preimage
    elif m != 0:
        sym = sym * decomp.half_power(-m)
    if any(k):
        sym = sym * decomp.half_derivative(k)
    return decomp.apply(sym, zeta)
