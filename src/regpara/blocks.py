"""Dyadic Littlewood-Paley decomposition and the spectral layer.

The radial cutoff chi is a smooth exponential step, identically 1 for
r <= 4/3 and identically 0 for r >= 3/2.  Blocks are

    rho_{-1}(xi) = chi(|xi|),      rho_j(xi) = chi(2^{-(j+1)}|xi|) - chi(2^{-j}|xi|),

which telescope exactly, so the partition of unity holds to rounding error
on every lattice frequency.  Block j >= 0 is supported in the annulus
[4/3, 3] * 2^j, hence rho_i * rho_j = 0 for |i - j| >= 2, and the low-pass
S_j = sum_{i < j-1} Delta_i has symbol chi(2^{-(j-1)}|xi|) for j >= 1 and
vanishes for j <= 0.

Block symbols, block transforms and the one-parameter paraproducts go
through the BlockDecomposition of its grid, one per grid.  Four places call
numpy's FFT directly: `Field.spectrum` (a field's half spectrum, kept),
`norms.synthesize` (a complex ifftn), `Grid.coord_fields` (one mollifying
rfft/irfft per grid) and the two-parameter paraproducts of `paraproducts`
(rfft2/irfft2 of a TwoParamField).  Fields are real, so transforms are
rfftn/irfftn on the half spectrum, and every symbol in use is radial or a
per-axis product, so it lives on the half spectrum only.  On 1-D grids the
plan (and `Field.spectrum`) calls numpy's 1-D rfft/irfft: the pocketfft
call that rfftn/irfftn end in, without their n-D argument handling (19
against 16 us a transform at n = 512, numpy 2.4 on a 2-core Xeon).

Sub-grids.  S_j f is supported in |xi| < (CHI_HI/2) 2^j and Delta_j g in
|xi| < ANNULUS_HI 2^j, so their product lives in |xi| < 3.75 * 2^j; in
lattice units (divided by freq_step) call that the bound K.  On a periodic
grid of M points per axis with M/2 > K both factors and their product are
represented without aliasing, so the product can be formed there and its
spectrum added into the grid's half spectrum unchanged, up to the factor
(M/N)^d of the transform normalisation.  `subgrid_size` picks the smallest
such power of two (at least SUBGRID_MIN points), `restrict` cuts a half
spectrum down to it (in d = 2 the low and the high wrap of axis 0) and
`scatter_add` adds a sub-grid half spectrum back.  A product whose sub-grid
would reach N does alias on the full grid; callers form those on the full
grid, so their aliasing is the same as that of a pointwise product there.

Stacked block transforms.  Every block loop (`holder_norm`,
`d_family_report`, the J-operator sums of `lambda_cross_check`, and the
top-block rows of each paraproduct operand) takes its rows from
`BlockDecomposition.blocks`, which alone sizes the stacks: `lanes` spectra
along a leading axis per inverse FFT, which numpy's pocketfft runs several
at a time in SIMD lanes, each lane bit for bit the one-at-a-time transform.
`lanes` is 4 in d = 1 and 1 in d = 2.  With numpy 2.4 on a 2-core Xeon, 16
inverse transforms of 32768 points took about 7 ms one at a time and 5 ms
in fours (deeper stacks gained little more); in d = 2 a transform already
vectorises across its rows, and a stack of 16 took 18 ms against 14 ms
looped at 256^2 (73 against 52 ms at 512^2).  A stack is allocated per
inverse FFT and let go before its rows are yielded; the heap policy below
serves it again from the heap.  The rows go into a ring of at most `lanes`
rows, which the next stack overwrites, so that a row is intact until the
next one is taken.  A held paraproduct operand (`paraproducts`) copies its
top-block rows out of the ring into its own buffer.

Heap policy.  A grid array of n = 32768 points is 256 KiB, above glibc's
default mmap threshold of 128 KiB.  glibc then serves such arrays by mmap
until one is freed, raises its threshold to that size and trims the top
of the heap once more than twice it lies free there; so within a pass
freed N-point arrays went back to the kernel and were faulted in again:
8-11K minor faults (about 40 MB) in every steady toy-1d-32k pass, and
40.8K in a fresh process's first.  The first plan whose grid array
reaches 128 KiB therefore calls mallopt once (`pin_heap`), fixing the
mmap threshold at 32 MiB, the ceiling of glibc's own dynamic threshold on
a 64-bit host, and the trim threshold at twice that, so freed arrays are
served again from the heap: a steady pass faults in no page, and a first
pass 6.2K.  Smaller
grids (4 KiB arrays at n = 512) leave the allocator as it is, and where
the C library has no mallopt nothing changes.
"""
from __future__ import annotations

import ctypes
import functools
import itertools

import numpy as np

from .grid import Field, Grid, smooth_step

CHI_LO = 4.0 / 3.0
CHI_HI = 3.0 / 2.0
ANNULUS_LO = CHI_LO            # inner radius of the block-0 annulus
ANNULUS_HI = 2.0 * CHI_HI     # outer radius of the block-0 annulus
SUBGRID_MIN = 64               # fewest points per axis of a sub-grid

# glibc's mallopt parameters, its default mmap threshold in bytes, and the
# thresholds pinned by `pin_heap`: the ceiling glibc's dynamic threshold
# can reach on a 64-bit host, and twice it for trimming, as that policy
# pairs them.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_DEFAULT = 128 * 1024
HEAP_MMAP_THRESHOLD = 32 * 1024 * 1024
HEAP_TRIM_THRESHOLD = 2 * HEAP_MMAP_THRESHOLD

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

    A plan holds read-only symbols only, so every caller on its grid, in
    any thread, shares it; each call allocates its own temporaries.
    `lanes` is the depth of a stacked block transform (`blocks`), fixed by
    the dimension (module docstring).
    """

    def __init__(self, grid: Grid, j_max: int):
        self.grid = grid
        self.j_max = j_max
        self.lanes = 4 if grid.dim == 1 else 1
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

    @functools.cached_property
    def live_js(self) -> tuple[int, ...]:
        """The blocks whose symbol is nonzero somewhere on the lattice; the
        others (rho_J when the lattice ends below its annulus) are empty."""
        return tuple(j for j in self.js if self.half_rho(j).any())

    # -- transforms ----------------------------------------------------------

    def rfft(self, values: np.ndarray) -> np.ndarray:
        if self.grid.dim == 1:
            return np.fft.rfft(values)
        return np.fft.rfftn(values)

    def irfft(self, spec: np.ndarray, size: int | None = None, out=None) -> np.ndarray:
        """Inverse real FFT onto the grid, or onto its sub-grid of `size`
        points per axis.  Leading axes of `spec`, beyond the grid's own,
        index a stack of independent spectra."""
        d, n = self.grid.dim, size or self.grid.n
        if d == 1:
            return np.fft.irfft(spec, n, out=out)
        return np.fft.irfftn(spec, s=(n,) * d, axes=tuple(range(-d, 0)), out=out)

    # -- sub-grids -----------------------------------------------------------

    def subgrid_size(self, bound: float) -> int:
        """Smallest power of two M >= SUBGRID_MIN with M/2 above `bound`
        (a frequency radius), capped at the grid's n."""
        size = SUBGRID_MIN
        while size // 2 <= bound / self.grid.freq_step and size < self.grid.n:
            size *= 2
        return min(size, self.grid.n)

    def restrict(self, half: np.ndarray, size: int) -> np.ndarray:
        """The modes of a half spectrum (or a stack of them) that the sub-grid
        of `size` points per axis holds; those past its Nyquist mode are dropped."""
        if size == self.grid.n:
            return half
        h = size // 2
        out = half[..., : h + 1]
        if self.grid.dim == 2:
            out = np.concatenate((out[..., :h, :], out[..., self.grid.n - h :, :]), axis=-2)
        return out

    def scatter_add(self, acc: np.ndarray, sub: np.ndarray, size: int) -> None:
        """acc += sub, a sub-grid half spectrum, placed at its modes below the
        sub-grid Nyquist frequency (band-limited sums carry none above)."""
        h = size // 2
        if self.grid.dim == 1:
            acc[:h] += sub[:h]
        else:
            acc[:h, :h] += sub[:h, :h]
            acc[self.grid.n - h + 1 :, :h] += sub[h + 1 :, :h]

    def apply(self, sym, f: Field) -> Field:
        """The Fourier multiplier with half-spectrum symbol `sym` applied to f."""
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        return Field.adopt(self.grid, self.irfft(sym * f.spectrum))

    def blocks(self, pairs):
        """Yields irfft(sym_i * spec_i) for the (sym, spec) pairs, in order.

        The products go through inverse FFTs `lanes` at a time, each stack
        and its symbols let go before its rows are yielded, into a ring of
        as many rows as the first stack has, which the next stack
        overwrites: a row yielded is intact until the next is taken."""
        pairs, ring = iter(pairs), None
        while True:
            stack = np.empty((self.lanes, *self.radius.shape), complex)
            n = 0
            for n, (sym, spec) in enumerate(itertools.islice(pairs, self.lanes), 1):
                np.multiply(sym, spec, out=stack[n - 1])
            if not n:
                return
            del sym, spec
            if ring is None:
                ring = np.empty((n, *self.grid.shape))
            self.irfft(stack[:n], out=ring[:n])
            del stack
            yield from ring[:n]
            if n < self.lanes:
                return

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
        t = self.radius / 2.0**j
        np.square(t, out=t)
        np.negative(t, out=t)
        return np.exp(t, out=t)

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


@functools.cache
def pin_heap() -> None:
    """Pin glibc's mmap and trim thresholds (once per process), so that the
    allocator serves freed N-point arrays again from the heap instead of
    giving them back to the kernel and faulting them in anew (module
    docstring).  Does nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


@functools.lru_cache(maxsize=32)
def spectral_plan(grid: Grid) -> BlockDecomposition:
    """The grid's plan, at the depth where the top block reaches the corner
    of the frequency lattice.  The first plan whose N-point array reaches
    glibc's default mmap threshold pins the heap policy (`pin_heap`)."""
    j_top = 1
    while CHI_LO * 2.0**j_top < grid.max_freq_radius():
        j_top += 1
    if grid.size * np.dtype(float).itemsize >= MMAP_THRESHOLD_DEFAULT:
        pin_heap()
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
    spec = f.spectrum
    if m > 0:
        return Field.adopt(f.grid, plan.irfft(plan.half_power(m) * spec), preimage=f)
    low = plan.radius < ANNULUS_LO
    mass = np.max(np.abs(spec[low])) if np.any(low) else 0.0
    scale = np.max(np.abs(spec))
    if scale > 0 and mass > 1e-10 * scale:
        raise LowShellError(
            f"|grad|^{m} undefined: spectral mass {mass:.3e} on the shell "
            f"|xi| < {ANNULUS_LO:.4g} (relative {mass / scale:.3e})"
        )
    return Field.adopt(f.grid, plan.irfft(plan.half_power(m) * spec))


def derivative(f: Field, k: tuple[int, ...]) -> Field:
    """Spectral partial derivative d^k f on the periodic grid."""
    if len(k) != f.grid.dim:
        raise ValueError(f"multi-index {k} does not match dim {f.grid.dim}")
    if not any(k):
        return f
    plan = spectral_plan(f.grid)
    return plan.apply(plan.half_derivative(k), f)


def j_operator(decomp: BlockDecomposition, j: int, k: tuple[int, ...], m: int, zeta: Field) -> Field:
    """J_j^{k,m}(zeta) = d^k |grad|^{-m} Delta_j zeta, in one multiplier."""
    sym, spec = j_operator_pair(decomp, j, k, m, zeta)
    return Field.adopt(decomp.grid, decomp.irfft(sym * spec))


def j_operator_pair(decomp: BlockDecomposition, j: int, k: tuple[int, ...], m: int,
                    zeta: Field) -> tuple:
    """(symbol, half spectrum) whose product is the spectrum of
    J_j^{k,m}(zeta), a pair for `BlockDecomposition.blocks`.

    j = -1 requires zeta to carry a preimage tag xi with zeta = |grad|^m xi;
    the result is then d^k Delta_{-1} xi.
    """
    if zeta.grid != decomp.grid:
        raise ValueError("grid mismatch")
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
    return sym, zeta.spectrum
