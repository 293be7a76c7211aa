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

`_block_sum` is one block sum over a sequence of (c, f, g) terms: every
term's top-block products go into one real-space sum and each sub-grid
group's into one sum on its sub-grid, each times c (c = 1 multiplies
nothing), so a sum of k products, as a step of the bracket recursions
(`models.BracketExtractor.step`) is, makes one forward FFT per group, one
of the top-block sum (m > 0) and one inverse FFT, as one product does.
`paraproduct_sum` is that sum of P^m products, and every sum of
paraproducts in `models` and `translation` is one; `paraproduct`,
`modified_paraproduct` and `resonant` are its one-term case, c = 1.  A sum
of several terms rounds otherwise than the products added one by one, at
the level of rounding.

Each operand side has one producer, `_rows`.  The rows of f (the factor
of S_j, or of Delta_i in Pi) or of g (|grad|^{-m} g, the factor of
Delta_j) are its top-block rows, from `BlockDecomposition.blocks`, then
per sub-grid group one inverse FFT of the side's symbols times its
restricted spectrum.  The terms are drawn one at a time, and a term's
rows are formed and multiplied before the next is drawn.

A Field keeps its rows only while it is held (`hold_rows`), in one buffer
per side, filled by the first product that forms them; the rows of a
Field not held are formed for one product.  `models.BracketExtractor`
holds: in a planned extraction an operand from its first product to its
last, then it releases it (`release_rows`) as the next term is drawn;
without a plan each bracket it memoizes, for the extractor's life.  A row
is the same transform, bit for bit, wherever it is formed (a lane of a
stacked inverse FFT equals its lone transform), and the products are
summed in the same order, so a sum does not depend on which of its rows
were held.
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
    `release_rows` or for its life (module docstring: who holds)."""
    if field._rows is None:
        field._rows = {}


def release_rows(field: Field, side: str) -> None:
    """Drop the rows `field` keeps as the `side` operand of products, "f"
    or "g"; a field that keeps none is no longer held."""
    if field._rows is not None:
        field._rows = {key: rows for key, rows in field._rows.items() if key[0] != side} or None


def _side_buffer(decomp: BlockDecomposition, resonant: bool) -> list:
    """One operand side's rows, uninitialised, over one buffer: the
    full-grid top-block rows, then an array per sub-grid group."""
    groups, full = _schedule(decomp, resonant)
    shapes = [(len(full), *decomp.grid.shape)]
    shapes += [(len(syms) // 2,) + (size,) * decomp.grid.dim for size, syms in groups]
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes[:-1]))
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def _rows(decomp: BlockDecomposition, resonant: bool, x: Field, side: str, m: int = 0):
    """Yields the rows of x as the `side` operand, "f" or "g" (of
    |grad|^{-m} x): each top-block row, from `blocks`, then per sub-grid
    group an array of its rows, one inverse FFT of the side's symbols times
    the restricted spectrum.  A held x keeps them in its side buffer,
    formed by the first product that asks and read back by the others."""
    key = (side, resonant, m)
    kept = x._rows
    if kept is not None and key in kept:
        top, *sub = kept[key]
        yield from top
        yield from sub
        return
    groups, full = _schedule(decomp, resonant)
    buf = [None] * (1 + len(groups))
    if kept is not None:
        buf = kept[key] = _side_buffer(decomp, resonant)
    spec = decomp.half_power(-m) * x.spectrum if m else x.spectrum
    g_side = side == "g"
    top = decomp.blocks((decomp.half_band(*bands[g_side]), spec) for bands in full)
    if buf[0] is None:
        yield from top
    else:
        for row, out in zip(top, buf[0]):
            out[...] = row
            yield out
    for (size, syms), out in zip(groups, buf[1:]):
        k = len(syms) // 2
        yield decomp.irfft((syms[k:] if g_side else syms[:k]) * decomp.restrict(spec, size),
                           size, out=out)


def _pair_sums(decomp: BlockDecomposition, resonant: bool, c: float, f: Field, g: Field,
               m: int, acc: np.ndarray) -> list:
    """Adds c times each top-block product of f and |grad|^{-m} g into acc,
    and returns c times each sub-grid group's sum of their products on its
    sub-grid.  The rows of both sides, and the rings they lie in, go with
    its return, before the next term of a block sum is drawn."""
    groups, full = _schedule(decomp, resonant)
    frows, grows = _rows(decomp, resonant, f, "f"), _rows(decomp, resonant, g, "g", m)
    prod = np.empty(decomp.grid.shape)
    # zip draws from `full` first, so it stops before the sub-grid rows
    for _bands, fb, gb in zip(full, frows, grows):
        np.multiply(fb, gb, out=prod)
        acc += prod if c == 1 else np.multiply(prod, c, out=prod)
    del prod
    sums = [np.sum(fb * gb, axis=0) for _group, fb, gb in zip(groups, frows, grows)]
    return sums if c == 1 else [np.multiply(part, c, out=part) for part in sums]


def _block_sum(decomp: BlockDecomposition, resonant: bool, terms, m: int = 0):
    """|grad|^m of the block sum of sum_i c_i P_{f_i} |grad|^{-m} g_i over the
    (c_i, f_i, g_i) terms (of c_i Pi(f_i, g_i) when resonant, with m = 0),
    drawn one at a time, each term's products formed (`_pair_sums`) before
    the next is drawn: the top blocks' products summed in real space, each
    sub-grid group's on its sub-grid, then each group's sum through its
    spectrum into the half spectrum, whose inverse FFT ends it, into the one
    array returned; None for no term."""
    groups, _full = _schedule(decomp, resonant)
    grid = decomp.grid
    acc = sums = None
    for c, f, g in terms:
        _check(decomp, f, g)
        if acc is None:
            acc = np.zeros(grid.shape)
        parts = _pair_sums(decomp, resonant, float(c), f, g, m, acc)
        if sums is None:
            sums = parts
        else:
            for total, part in zip(sums, parts):
                total += part
    if acc is None:
        return None
    spec = np.zeros(decomp.radius.shape, complex)
    for (size, _syms), total in zip(groups, sums):
        total *= (size / grid.n) ** grid.dim
        decomp.scatter_add(spec, decomp.rfft(total), size)
    if m:
        spec += decomp.rfft(acc)
        spec *= decomp.half_power(m)
        return decomp.irfft(spec)
    out = decomp.irfft(spec)
    out += acc
    return out


def paraproduct_sum(decomp: BlockDecomposition, m: int, terms) -> Field:
    """sum_i c_i P^m_{f_i} g_i over the (c_i, f_i, g_i) terms, c_i a number
    and f_i, g_i Fields, drawn one at a time, as one block sum: the terms
    share its transforms, one forward FFT per sub-grid group, one of the top
    blocks (m > 0) and one inverse FFT.  It rounds otherwise than adding the
    products one by one, at the level of rounding; one term (1, f, g) is
    `modified_paraproduct` bit for bit, and no term the zero Field, made
    without a transform."""
    if m < 0:
        raise ValueError("modified paraproduct requires m in N")
    out = _block_sum(decomp, False, terms, m)
    return Field.zero(decomp.grid) if out is None else Field.adopt(decomp.grid, out)


def paraproduct(decomp: BlockDecomposition, f: Field, g: Field) -> Field:
    """P_f g = sum_{j>=1} (S_j f)(Delta_j g)."""
    return modified_paraproduct(decomp, 0, f, g)


def modified_paraproduct(decomp: BlockDecomposition, m: int, f: Field, g: Field) -> Field:
    """P^m_f g = sum_{j>=1} |grad|^m (S_j f * |grad|^{-m} Delta_j g).

    |grad|^{-m} is applied once to g and |grad|^m once to the block sum,
    which is the same operator since both are linear.  m = 0 runs the
    identical code path as the plain paraproduct, so P^0 = P bit for bit.
    """
    return paraproduct_sum(decomp, m, [(1, f, g)])


def resonant(decomp: BlockDecomposition, f: Field, g: Field) -> Field:
    """Pi(f, g) = sum_{|i-j|<=1} (Delta_i f)(Delta_j g)."""
    return Field.adopt(decomp.grid, _block_sum(decomp, True, [(1, f, g)]))


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
