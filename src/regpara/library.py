"""Shipped example structures and rules used by tests, demos, and the CLI."""
from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

from .algebra import ConcreteRegularityStructure, polynomial_structure
from .rules import Rule, TreeBasis, enumerate_basis, export_structure


# One noise at -5/8, kernel of order 1, cutoff 1.  Small basis with two
# negative-homogeneity products and a two-step plus-side induction; satisfies
# assumption (D).
TOY_RULE = Rule(
    dim=1,
    cutoff=Fraction(1),
    noises=(("xi", Fraction(-5, 8)),),
    kernels=(("t", Fraction(1)),),
    products=((("xi", 1),), (("t", 1),), (("t", 1), ("xi", 1))),
    polybound=1,
    max_e=0,
    name="toy",
)

# The toy rule in d = 2 with the noise at -1/4.  At cutoff 1 its basis is
# four trees of B. and one plus-generator; satisfies assumption (D).
TOY2D_RULE = dataclasses.replace(TOY_RULE, dim=2, noises=(("xi", Fraction(-1, 4)),), name="toy2d")

# One heavier noise at -9/8 with a second-order kernel, cutoff 2.  The
# canonical basis contains I_0^t(X_1 Theta) and fails assumption (D) with the
# textbook witness; the non-canonical basis repairs it.  Plus-generators carry
# a genuine D^k action (|I_0^t(X_1 Theta)| = 15/8 > 1).
BHZ_RULE = Rule(
    dim=1,
    cutoff=Fraction(2),
    noises=(("th", Fraction(-9, 8)),),
    kernels=(("t", Fraction(2)),),
    products=((("th", 1),), (("t", 1),)),
    polybound=1,
    max_e=0,
    name="bhz",
)

# Two noises of equal homogeneity; used for the order-independence test of
# the g-reconstruction among equal-homogeneity generators.
TWO_NOISE_RULE = Rule(
    dim=1,
    cutoff=Fraction(1),
    noises=(("a", Fraction(-5, 8)), ("b", Fraction(-5, 8))),
    kernels=(("t", Fraction(1)),),
    products=((("a", 1),), (("b", 1),), (("t", 1),), (("t", 1), ("a", 1))),
    polybound=1,
    max_e=0,
    name="twonoise",
)

RULES = {r.name: r for r in (TOY_RULE, TOY2D_RULE, BHZ_RULE, TWO_NOISE_RULE)}

# The export sweep: (rule, cutoff) pairs each of which exports or raises ClosureError.
EXPORT_SWEEP = (
    *((name, c) for name in ("toy", "twonoise", "toy2d") for c in ("1", "5/4", "3/2", "7/4", "2")),
    *(("bhz", c) for c in ("2", "5/2", "3", "4")), ("toy", "5/2"), ("toy", "3"))


@functools.lru_cache(maxsize=None)
def basis(name: str) -> TreeBasis:
    return enumerate_basis(RULES[name])


@functools.lru_cache(maxsize=None)
def structure(name: str, noncanonical: bool = False) -> ConcreteRegularityStructure:
    if name == "polynomial":
        return polynomial_structure(1, 2)
    return export_structure(basis(name), noncanonical=noncanonical)
