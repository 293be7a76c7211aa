"""Characters of T+ and their convolution group.

A character is stored by its values on the plus-generators together with the
polynomial evaluation point; everything else follows by multiplicativity.
Values may be exact rationals, floats, or numpy arrays (one value per grid
point), and the same code path serves all three.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import (
    ConcreteRegularityStructure,
    FreeVector,
    PlusMonomial,
)


def _pow(base, e: int):
    if e == 0:
        return 1
    return base**e


def _cmul(c: Fraction, val):
    """Multiply a rational coefficient into a value of any supported type."""
    if isinstance(val, np.ndarray):
        return float(c) * val
    return c * val


class Character:
    """Multiplicative functional on T+ with g(X^k) = point^k."""

    def __init__(self, structure: ConcreteRegularityStructure, point, values: dict):
        if len(point) != structure.dim:
            raise ValueError("evaluation point does not match structure dimension")
        self.structure = structure
        self.point = tuple(point)
        self.values = dict(values)

    # -- evaluation ------------------------------------------------------------

    def of_gen(self, name: str):
        if name not in self.values:
            raise KeyError(f"character has no value on generator {name}")
        return self.values[name]

    def gens(self) -> set:
        """Generators this character can evaluate."""
        return set(self.values)

    def of_monomial(self, m: PlusMonomial):
        out = 1
        for name, mult in m.gens:
            out = out * _pow(self.of_gen(name), mult)
        for x, k in zip(self.point, m.poly):
            if k:
                out = out * _pow(x, k)
        return out

    def __call__(self, v):
        """Evaluate on a PlusMonomial or a FreeVector over plus-monomials."""
        if isinstance(v, PlusMonomial):
            return self.of_monomial(v)
        out = 0
        for mono, c in v.sorted_items():
            out = out + _cmul(c, self.of_monomial(mono))
        return out

    # -- group structure ---------------------------------------------------------

    def convolve(self, other: "Character") -> "Character":
        """(g1 * g2)(tau) = (g1 (x) g2) Delta+ tau; again a character."""
        if other.structure is not self.structure:
            raise ValueError("characters live on different structures")
        point = tuple(a + b for a, b in zip(self.point, other.point))
        values = {}
        built = self.gens() & other.gens()
        for name in sorted(built):
            acc = 0
            for (left, right), c in self.structure.dplus_table[name].sorted_items():
                acc = acc + _cmul(c, self.of_monomial(left) * other.of_monomial(right))
            values[name] = acc
        return Character(self.structure, point, values)

    def invert(self) -> "Character":
        """Convolution inverse via the homogeneity-increasing recursion
        g^{-1}(tau) = -g(tau) - sum_{1 < sigma < tau} g^{-1}(sigma) g(tau/sigma),
        evaluated lazily so partially built characters invert on the part
        that exists."""
        return _InverseCharacter(self)

    @staticmethod
    def counit(structure: ConcreteRegularityStructure) -> "Character":
        zero = (Fraction(0),) * structure.dim
        return Character(structure, zero, {n: Fraction(0) for n in structure.plus_gens})


class _InverseCharacter(Character):
    """Convolution inverse of a base character, memoised per generator."""

    def __init__(self, base: Character):
        super().__init__(
            base.structure, tuple(-x for x in base.point), {}
        )
        self._base = base

    def of_gen(self, name: str):
        if name not in self.values:
            S = self.structure
            gen = PlusMonomial.of_gen(name, S.dim)
            acc = -self._base.of_monomial(gen)
            for (left, right), c in S.dplus_table[name].sorted_items():
                if left == gen or left.is_unit:
                    continue
                acc = acc - _cmul(c, self.of_monomial(left) * self._base.of_monomial(right))
            self.values[name] = acc
        return self.values[name]

    def gens(self) -> set:
        return self._base.gens()


def field_character(structure, grid, values: dict) -> Character:
    """Character valued in grid fields: point = coordinate arrays."""
    if grid.dim != structure.dim:
        raise ValueError("grid dimension does not match structure")
    return Character(structure, grid.coord_fields(), values)


def sample_character(g: Character, idx) -> Character:
    """Scalar character at one grid point (idx a tuple index into the arrays)."""
    point = tuple(x[idx] if isinstance(x, np.ndarray) else x for x in g.point)
    values = {
        n: (v[idx] if isinstance(v, np.ndarray) else v) for n, v in g.values.items()
    }
    return Character(g.structure, point, values)


def two_point(g: Character, idx_y, idx_x, v) -> float:
    """g_{yx}(v) = (g_y (x) g_x^{-1}) Delta+ v at two grid points."""
    gy = sample_character(g, idx_y)
    gx_inv = sample_character(g, idx_x).invert()
    S = g.structure
    if isinstance(v, PlusMonomial):
        v = FreeVector.single(v)
    acc = 0.0
    for mono, c in v.sorted_items():
        for (left, right), c2 in S.delta_plus(mono).sorted_items():
            acc += float(c) * float(c2) * float(gy.of_monomial(left)) * float(
                gx_inv.of_monomial(right)
            )
    return acc


def _contract(g: Character, g_inv: Character, v, left_poly: bool):
    """sum c g(left) g^{-1}(right) over the terms of Delta+ v with left in
    B_X^+ (left_poly) or outside it, pointwise for field characters."""
    acc = 0
    for c, left, right in g.structure.delta_plus_terms(v, left_poly):
        acc = acc + _cmul(c, g.of_monomial(left) * g_inv.of_monomial(right))
    return acc


def f_character_values(g: Character, g_inv: Character, v):
    """f(v) = -(g (x) g^{-1})(P_X Delta+ v), the paracontrolled projection
    functional, evaluated pointwise (array-valued for field characters)."""
    return -1 * _contract(g, g_inv, v, left_poly=True)


def f_character_complement(g: Character, g_inv: Character, v):
    """The complement form f(v) = sum_{sigma <= tau, sigma not in B_X}
    g(sigma) g^{-1}(tau/sigma); agrees with the projection form off B_X."""
    return _contract(g, g_inv, v, left_poly=False)
