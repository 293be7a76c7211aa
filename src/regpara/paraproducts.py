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

The kernel has two parts.  The operand rows of a side, f (the factor of
S_j, or of Delta_i in Pi) or g (|grad|^{-m} g, the factor of Delta_j), are
its factors in every block product: per sub-grid group the inverse FFT of
the group's symbols times the side's restricted spectrum, and its
full-grid top-block rows.  The pair kernel multiplies the two sides' rows
and sums the products, those of a group on its sub-grid and then through
its spectrum, those of the top blocks in real space.  The rows of a side
that keeps none are formed group by group within the pair kernel, and
when both sides are formed they share each inverse FFT: one stack of 2k
rows per group, and the F and G rows of the top blocks in the stacks of
`BlockDecomposition.blocks`.

A Field keeps its rows only while it is held (`hold_rows`), in one buffer
per side, filled by the first product that forms them.  The one caller
that holds Fields, `models.extract_brackets`, plans its products: it holds
an operand from its first product to its last and then releases it
(`release_rows`), so that the rows of an operand of several products are
formed once.  Every other caller holds nothing, and each of its products
forms the rows of both sides and lets them go.  A row is the same
transform, bit for bit, wherever it is formed (a lane of a stacked inverse
FFT equals its lone transform), and the products are summed in the same
order, so a product does not depend on which of its rows were held.
"""
from __future__ import annotations

import functools
import math

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


def hold_rows(field: Field) -> None:
    """Let `field` keep the operand rows that products form of it, until
    `release_rows`: a caller holds an operand before each product of it
    that is not its last."""
    if field._rows is None:
        field._rows = {}


def release_rows(field: Field, side: str) -> None:
    """Drop the rows `field` keeps as the `side` operand of products, "f"
    or "g"; a field that keeps none is no longer held."""
    rows = field._rows
    if rows is not None:
        for key in [key for key in rows if key[0] == side]:
            del rows[key]
        if not rows:
            field._rows = None


def _side_buffer(decomp: BlockDecomposition, resonant: bool) -> list:
    """One operand side's rows, uninitialised, over one buffer: an array
    per sub-grid group, then the full-grid top-block rows."""
    groups, full = _schedule(decomp, resonant)
    shapes = [(len(syms) // 2,) + (size,) * decomp.grid.dim for size, syms in groups]
    shapes.append((len(full), *decomp.grid.shape))
    buf = np.empty(sum(map(math.prod, shapes)))
    out, at = [], 0
    for shape in shapes:
        out.append(buf[at : at + math.prod(shape)].reshape(shape))
        at += math.prod(shape)
    return out


def _block_sum(decomp: BlockDecomposition, resonant: bool, f: Field, g: Field,
               m: int = 0) -> np.ndarray:
    """|grad|^m of the block sum of P_f |grad|^{-m} g (Pi(f, g) when
    resonant, with m = 0).

    The operand rows a held field keeps are read from its buffer; the
    others are formed by the pair kernel, and written into the buffer of a
    held field that keeps none yet.  One inverse FFT of the summed
    spectrum ends it, into the one array returned."""
    groups, full = _schedule(decomp, resonant)
    frows, fspec, fbuf = _side(decomp, resonant, f, ("f", resonant))
    grows, gspec, gbuf = _side(decomp, resonant, g, ("g", resonant, m))
    if m and gspec is not None:
        gspec = decomp.half_power(-m) * gspec
    sides = (frows, fspec, fbuf), (grows, gspec, gbuf)
    acc = _top_sum(decomp, full, sides)
    spec = _group_sum(decomp, groups, sides)
    if m:
        spec += decomp.rfft(acc)
        spec *= decomp.half_power(m)
        return decomp.irfft(spec)
    out = decomp.irfft(spec)
    out += acc
    return out


def _side(decomp: BlockDecomposition, resonant: bool, x: Field, key) -> tuple:
    """(rows, None, None) for a side whose rows x keeps, else (None, the
    half spectrum of x, the buffer x keeps the rows in if it is held)."""
    kept = x._rows
    rows = None if kept is None else kept.get(key)
    if rows is not None:
        return rows, None, None
    buf = None
    if kept is not None:
        buf = kept[key] = _side_buffer(decomp, resonant)
    return None, x.spectrum, buf


def _top_sum(decomp: BlockDecomposition, full, sides) -> np.ndarray:
    """The pair kernel on the top blocks: the sum of their F row times
    their G row, in real space.  A side's rows are those it keeps, or are
    formed from its half spectrum pair by pair, F and G in one group."""
    (frows, fspec, fbuf), (grows, gspec, gbuf) = sides
    fresh = [(i, spec) for i, spec in enumerate((fspec, gspec)) if spec is not None]
    formed = decomp.blocks(((decomp.half_band(*bands[i]), spec)
                            for bands in full for i, spec in fresh), len(fresh)) if fresh else None
    acc = np.zeros(decomp.grid.shape)
    for b in range(len(full)):
        rows = next(formed) if fresh else ()
        fb = rows[0] if frows is None else frows[-1][b]
        gb = rows[-1] if grows is None else grows[-1][b]
        if fbuf is not None:
            fbuf[-1][b] = fb
        if gbuf is not None:
            gbuf[-1][b] = gb
        # the product goes into a row formed here, a ring row, if any
        acc += np.multiply(fb, gb, out=rows[-1] if fresh else None)
    return acc


def _group_sum(decomp: BlockDecomposition, groups, sides) -> np.ndarray:
    """The pair kernel on the sub-grid groups: each group's products summed
    on its sub-grid, their spectrum added into the half spectrum returned.
    Rows as in `_top_sum`; those formed for one group, F and G, are one
    inverse FFT."""
    (frows, fspec, fbuf), (grows, gspec, gbuf) = sides
    grid = decomp.grid
    spec = np.zeros(decomp.radius.shape, complex)
    for i, (size, syms) in enumerate(groups):
        k = len(syms) // 2
        if frows is None or grows is None:
            # the sides formed here take symbols lo..hi: F's, G's or both
            lo, hi = (0 if frows is None else k), (k if grows is not None else 2 * k)
            stack = np.empty((hi - lo, *syms.shape[1:]), complex)
            if frows is None:
                np.multiply(syms[:k], decomp.restrict(fspec, size), out=stack[:k])
            if grows is None:
                np.multiply(syms[k:], decomp.restrict(gspec, size), out=stack[k - lo :])
            formed = decomp.irfft(stack, size)
            del stack   # not held while the products are formed
        fb = formed[:k] if frows is None else frows[i]
        gb = formed[k - lo :] if grows is None else grows[i]
        if fbuf is not None:
            fbuf[i][...] = fb
        if gbuf is not None:
            gbuf[i][...] = gb
        prod = np.sum(fb * gb, axis=0)
        prod *= (size / grid.n) ** grid.dim
        decomp.scatter_add(spec, decomp.rfft(prod), size)
    return spec


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
    return Field.adopt(decomp.grid, _block_sum(decomp, False, f, g, m))


def resonant(decomp: BlockDecomposition, f: Field, g: Field) -> Field:
    """Pi(f, g) = sum_{|i-j|<=1} (Delta_i f)(Delta_j g)."""
    _check(decomp, f, g)
    return Field.adopt(decomp.grid, _block_sum(decomp, True, f, g))


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
