"""Paraproducts, resonant products, and their modified/two-parameter versions.

Every block sum (P, P^m and Pi) runs through one kernel, `_block_sum`.  A
block product has a spectral support bound: S_j f * Delta_j g lies in
|xi| < (CHI_HI/2 + ANNULUS_HI) 2^j = 3.75 * 2^j, and Delta_i f times
Delta_{i-1..i+1} g in |xi| < 3 ANNULUS_HI 2^i = 9 * 2^i.  The kernel forms
each product on the smallest sub-grid of M points per axis with M/2 above
that bound (in lattice units), where neither the factors nor the product
alias, and adds its spectrum into the grid's half spectrum (see the
docstring of `blocks`).  The top blocks, whose sub-grid would reach the
grid's own n, are multiplied on the grid and summed in real space, exactly
as a pointwise product is: their aliasing is what makes
P_f g + P_g f + Pi(f, g) = fg hold to rounding.  The summed spectrum goes
through one inverse FFT, after |grad|^m when m > 0.  Forming products below
their band also keeps the rounding error of real-space products above the
band out of the spectrum, where |grad|^m would amplify it.
"""
from __future__ import annotations

import functools

import numpy as np

from .blocks import (
    ANNULUS_HI,
    ANNULUS_LO,
    CHI_HI,
    BlockDecomposition,
    low_pass,
    smooth_step,
)
from .grid import Field, TwoParamField

PARA_BOUND = CHI_HI / 2.0 + ANNULUS_HI      # S_j f * Delta_j g, per 2^j
RESONANT_BOUND = 3.0 * ANNULUS_HI           # Delta_i f * Delta_{i-1..i+1} g, per 2^i


def _check(decomp: BlockDecomposition, *fields: Field) -> None:
    for f in fields:
        if f.grid != decomp.grid:
            raise ValueError("grid mismatch")


@functools.lru_cache(maxsize=64)
def _schedule(decomp: BlockDecomposition, resonant: bool) -> tuple:
    """The block products of Pi (resonant) or of P on decomp's grid, as
    (sub-grid groups, full-grid blocks).  A group is (size, symbols): the
    F symbols then the G symbols of its products, stacked on that sub-grid;
    a full-grid block is its pair of (lo, hi) Delta ranges, whose symbols
    are rebuilt per call rather than held.  Products whose symbols vanish on
    the lattice (rho_J, say) are left out."""
    if resonant:
        blocks = [(RESONANT_BOUND * 2.0**i, (i, i), (i - 1, i + 1)) for i in decomp.js]
    else:
        blocks = [(PARA_BOUND * 2.0**j, (-1, j - 2), (j, j)) for j in range(1, decomp.j_max + 1)]
    by_size: dict[int, list] = {}
    full = []
    for bound, fband, gband in blocks:
        size = decomp.subgrid_size(bound)
        fsym = decomp.restrict(decomp.half_band(*fband), size)
        gsym = decomp.restrict(decomp.half_band(*gband), size)
        if not (fsym.any() and gsym.any()):
            continue
        if size == decomp.grid.n:
            full.append((fband, gband))
        else:
            by_size.setdefault(size, []).append((fsym, gsym))
    groups = []
    for size, pairs in by_size.items():
        fsyms, gsyms = zip(*pairs)
        syms = np.stack(fsyms + gsyms)
        syms.setflags(write=False)
        groups.append((size, syms))
    return tuple(groups), tuple(full)


def _block_sum(decomp: BlockDecomposition, resonant: bool, fspec, gspec, m: int = 0) -> np.ndarray:
    """|grad|^m of the block sum of P or Pi, from the half spectra of f and g.

    The F and G factors of the products on one sub-grid are transformed as
    one stack and the products summed there, then added into the half
    spectrum; the factors of those on the grid itself come from the plan's
    block transforms, the F row of a product then its G row, and the
    products are summed in real space.  One inverse FFT of the summed
    spectrum ends it, into the one array returned."""
    grid = decomp.grid
    groups, full = _schedule(decomp, resonant)
    acc = np.zeros(grid.shape)
    rows = decomp.blocks((decomp.half_band(*band), spec) for fband, gband in full
                         for band, spec in ((fband, fspec), (gband, gspec)))
    for fb, gb in zip(rows, rows):   # the F and the G row of one product
        fb *= gb
        acc += fb
    spec = np.zeros(decomp.radius.shape, complex)
    for size, syms in groups:
        k = len(syms) // 2
        stack = np.empty(syms.shape, complex)
        np.multiply(syms[:k], decomp.restrict(fspec, size), out=stack[:k])
        np.multiply(syms[k:], decomp.restrict(gspec, size), out=stack[k:])
        b = decomp.irfft(stack, size)
        del stack   # not held while the products are formed
        prod = np.sum(b[:k] * b[k:], axis=0)
        prod *= (size / grid.n) ** grid.dim
        decomp.scatter_add(spec, decomp.rfft(prod), size)
    if m:
        spec += decomp.rfft(acc)
        spec *= decomp.half_power(m)
        return decomp.irfft(spec)
    out = decomp.irfft(spec)
    out += acc
    return out


def paraproduct(decomp: BlockDecomposition, f: Field, g: Field) -> Field:
    """P_f g = sum_{j>=1} (S_j f)(Delta_j g)."""
    return modified_paraproduct(decomp, 0, f, g)


def modified_paraproduct(decomp: BlockDecomposition, m: int, f: Field, g: Field) -> Field:
    """P^m_f g = sum_{j>=1} |grad|^m (S_j f * |grad|^{-m} Delta_j g).

    |grad|^{-m} is applied once to g and |grad|^m once to the block sum,
    which is the same operator since both are linear.  m = 0 runs the
    identical code path as the plain paraproduct, so P^0 = P bit for bit.
    """
    _check(decomp, f, g)
    if m < 0:
        raise ValueError("modified paraproduct requires m in N")
    gspec = g.spectrum
    if m:
        gspec = decomp.half_power(-m) * gspec
    return Field.adopt(decomp.grid, _block_sum(decomp, False, f.spectrum, gspec, m))


def resonant(decomp: BlockDecomposition, f: Field, g: Field) -> Field:
    """Pi(f, g) = sum_{|i-j|<=1} (Delta_i f)(Delta_j g)."""
    _check(decomp, f, g)
    return Field.adopt(decomp.grid, _block_sum(decomp, True, f.spectrum, g.spectrum))


def smooth_part(decomp: BlockDecomposition, g: Field) -> Field:
    """S g = g - P_1 g = (Delta_{-1} + Delta_0) g = S_2 g."""
    return low_pass(decomp, 2, g)


def commutator(decomp: BlockDecomposition, f: Field, g: Field, h: Field) -> Field:
    """R°(f, g, h) = P_f P_g h - P_{fg} h."""
    _check(decomp, f, g, h)
    return paraproduct(decomp, f, paraproduct(decomp, g, h)) - paraproduct(decomp, f * g, h)


# ---------------------------------------------------------------------------
# Two-parameter paraproducts.  Dense d=1 only; the (x, y) slots of Lambda are
# (first, second) array axes.

# Spectrum of x -> P_j(x-y) Q_j(x-z) sits in the annulus 2^j * [ENV_LO, ENV_HI]
# (Minkowski sum of the S_j ball of radius (3/4)2^j and the block annulus).
ENV_LO = ANNULUS_LO - 0.75
ENV_HI = ANNULUS_HI + 0.75


def _envelope_symbol(decomp: BlockDecomposition, j: int, m: int = 0) -> np.ndarray:
    """Symbol of R_j^m = |grad|^m R_j: |xi|^m chi_A(2^{-j}|xi|), where the
    smooth window chi_A is exactly 1 on [ENV_LO, ENV_HI]."""
    scaled = decomp.radius / 2.0**j
    lo0, hi0 = ENV_LO / 2.0, ENV_HI * 1.25
    sym = smooth_step((scaled - lo0) / (ENV_LO - lo0)) * smooth_step(
        (hi0 - scaled) / (hi0 - ENV_HI)
    )
    if m:
        sym = sym * decomp.half_power(m)
    return sym


def two_param_block(decomp: BlockDecomposition, j: int, lam: TwoParamField,
                    envelope: bool | None = None) -> Field:
    """Q_j Lambda: low-pass in the first slot, block in the second, diagonal
    trace.  The R_j envelope convolution is a no-op on the relevant annulus
    and is skipped by default; pass envelope=True to insert it explicitly.
    """
    return _two_param_block(decomp, j, _two_param_spectrum(decomp, lam), 0, envelope)


def _two_param_spectrum(decomp: BlockDecomposition, lam: TwoParamField) -> np.ndarray:
    if lam.grid != decomp.grid:
        raise ValueError("grid mismatch")
    return np.fft.rfft2(lam.values)


def _two_param_block(decomp, j, lam_spec, m, envelope=None) -> Field:
    """Q_j^m Lambda from the rfft2 of Lambda: low-pass in the first slot,
    block with |grad|^{-m} in the second, diagonal trace, then the R_j^m
    envelope (by default only for m > 0)."""
    grid = decomp.grid
    if j < 1 or j > decomp.j_max:
        raise ValueError(f"two-parameter blocks need 1 <= j <= {decomp.j_max}")
    if envelope is None:
        envelope = m != 0
    n = grid.n
    qsym = decomp.half_rho(j)
    if m:
        qsym = qsym * decomp.half_power(-m)
    spec = decomp.low_symbol(j)[:, None] * lam_spec * qsym[None, :]
    out = Field(grid, np.diag(np.fft.irfft2(spec, s=(n, n), axes=(0, 1))).copy())
    if envelope:
        out = decomp.apply(_envelope_symbol(decomp, j, m), out)
    return out


def _two_param_sum(decomp: BlockDecomposition, m: int, lam: TwoParamField) -> Field:
    """sum_{j>=1} Q_j^m Lambda, transforming Lambda once."""
    lam_spec = _two_param_spectrum(decomp, lam)
    acc = Field.zero(decomp.grid)
    for j in range(1, decomp.j_max + 1):
        acc = acc + _two_param_block(decomp, j, lam_spec, m)
    return acc


def two_param_paraproduct(decomp: BlockDecomposition, lam: TwoParamField) -> Field:
    """**P** Lambda = sum_{j>=1} Q_j Lambda; **P**(f (x) g) = P_f g."""
    return _two_param_sum(decomp, 0, lam)


def two_param_modified(decomp: BlockDecomposition, m: int, lam: TwoParamField) -> Field:
    """**P**^m Lambda = sum_{j>=1} Q_j^m Lambda; **P**^m(f (x) g) = P^m_f g."""
    if m < 0:
        raise ValueError("two-parameter modified paraproduct requires m in N")
    return _two_param_sum(decomp, m, lam)
