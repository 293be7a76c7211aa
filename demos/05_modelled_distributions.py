"""Modelled distributions as paracontrolled systems, and reconstruction.

Over a structure whose basis has no polynomial-right coproduct terms, a
modelled distribution is determined by one free bracket per core symbol;
polynomial-decorated coefficients follow by diagonal differentiation.  The
reconstruction is checked against its defining local-approximation property.
"""
from fractions import Fraction

import numpy as np

from regpara import (
    Grid,
    build_g,
    build_pi,
    md_from_paracontrolled,
    md_to_paracontrolled,
    random_brackets,
    random_md_brackets,
    reconstruction_report,
    structure,
    validate_md,
)

S = structure("toy")
grid = Grid(1, 512, np.pi)
g_brackets, pi_brackets = random_brackets(S, grid, seed=20)
model = build_pi(S, grid, build_g(S, grid, g_brackets), pi_brackets)

gamma = Fraction(9, 8)
# one bracket per core symbol below gamma, at gamma - |core|, from seed 100 + i
brackets = random_md_brackets(S, grid, gamma, seed=100)
print(f"free coordinates of the gamma={gamma} distribution space:")
for s in brackets:
    print(f"  target C^{gamma - S.homog_base(s)}  <f_{s}>")

md = md_from_paracontrolled(model, brackets, gamma, mode="d")
print(f"\nbuilt {len(md.coeffs)} coefficients (polynomial slots by diagonal "
      f"derivatives with the factorial normalisation)")

vrep = validate_md(model, md)
print(f"two-point coefficient checks: {'pass' if vrep.ok else 'FAIL'}")

system = md_to_paracontrolled(model, md, with_reports=False)
worst = max(
    np.max(np.abs(system.brackets[s] - brackets[s])) / np.max(np.abs(brackets[s]))
    for s in brackets
)
print(f"representation recovers the free coordinates: {worst:.2e}")

rrep = reconstruction_report(model, md)
print(f"reconstruction local-approximation slope: {rrep.slope:+.3f} "
      f"(target >= {float(gamma) - 0.2:.3f})")

md2 = md_from_paracontrolled(model, dict(system.brackets), gamma, mode="general")
worst2 = max(
    np.max(np.abs(md2.coeffs[s] - v)) / max(np.max(np.abs(v)), 1e-30)
    for s, v in md.coeffs.items()
)
print(f"general mode (with structure-condition verification) agrees: {worst2:.2e}")
