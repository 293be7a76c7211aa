"""Paraproducts, resonant products, and their modified/two-parameter versions."""
from __future__ import annotations

import numpy as np

from .blocks import ANNULUS_HI, ANNULUS_LO, BlockDecomposition, low_pass, smooth_step
from .grid import Field, TwoParamField


def _check(decomp: BlockDecomposition, *fields: Field) -> None:
    for f in fields:
        if f.grid != decomp.grid:
            raise ValueError("grid mismatch")


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
    fspec = decomp.rfft(f.values)
    gspec = decomp.rfft(g.values)
    if m:
        gspec = decomp.half_power(-m) * gspec
    acc = np.zeros(decomp.grid.shape)
    for j in range(1, decomp.j_max + 1):
        s = decomp.irfft(decomp.half_low(j) * fspec)
        acc += s * decomp.irfft(decomp.half_rho(j) * gspec)
    if m:
        acc = decomp.irfft(decomp.half_power(m) * decomp.rfft(acc))
    return Field(decomp.grid, acc)


def resonant(decomp: BlockDecomposition, f: Field, g: Field) -> Field:
    """Pi(f, g) = sum_{|i-j|<=1} (Delta_i f)(Delta_j g)."""
    _check(decomp, f, g)
    fspec = decomp.rfft(f.values)
    gspec = decomp.rfft(g.values)
    acc = np.zeros(decomp.grid.shape)
    for i in decomp.js:
        near = decomp.irfft(decomp.half_band(i - 1, i + 1) * gspec)
        acc += decomp.irfft(decomp.half_rho(i) * fspec) * near
    return Field(decomp.grid, acc)


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


def two_param_block(
    decomp: BlockDecomposition,
    j: int,
    lam: TwoParamField,
    m: int = 0,
    envelope: bool | None = None,
) -> Field:
    """Q_j Lambda (m = 0) or Q_j^m Lambda: low-pass in the first slot, block
    (with |grad|^{-m}) in the second, diagonal trace, then the R_j^m envelope.

    For m = 0 the envelope convolution is a no-op on the relevant annulus and
    is skipped by default; pass envelope=True to insert R_j explicitly.
    """
    grid = decomp.grid
    if lam.grid != grid:
        raise ValueError("grid mismatch")
    if j < 1 or j > decomp.j_max:
        raise ValueError(f"two-parameter blocks need 1 <= j <= {decomp.j_max}")
    if envelope is None:
        envelope = m != 0
    n = grid.n
    qsym = decomp.half_rho(j)
    if m:
        qsym = qsym * decomp.half_power(-m)
    spec = decomp.low_symbol(j)[:, None] * np.fft.rfft2(lam.values) * qsym[None, :]
    out = Field(grid, np.diag(np.fft.irfft2(spec, s=(n, n), axes=(0, 1))).copy())
    if envelope:
        out = decomp.apply(_envelope_symbol(decomp, j, m), out)
    return out


def two_param_paraproduct(decomp: BlockDecomposition, lam: TwoParamField) -> Field:
    """**P** Lambda = sum_{j>=1} Q_j Lambda; **P**(f (x) g) = P_f g."""
    acc = Field.zero(decomp.grid)
    for j in range(1, decomp.j_max + 1):
        acc = acc + two_param_block(decomp, j, lam)
    return acc


def two_param_modified(decomp: BlockDecomposition, m: int, lam: TwoParamField) -> Field:
    """**P**^m Lambda = sum_{j>=1} Q_j^m Lambda; **P**^m(f (x) g) = P^m_f g."""
    if m < 0:
        raise ValueError("two-parameter modified paraproduct requires m in N")
    if m == 0:
        return two_param_paraproduct(decomp, lam)
    acc = Field.zero(decomp.grid)
    for j in range(1, decomp.j_max + 1):
        acc = acc + two_param_block(decomp, j, lam, m)
    return acc
