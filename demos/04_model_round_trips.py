"""Models from free bracket data and back.

The space of models over a suitable structure is parametrised by one free
field per plus-side generator orbit and one per negative-homogeneity symbol.
This demo draws those coordinates at their target regularities, builds the
model by the ordered inductions, validates the defining conditions, and
recovers the coordinates by bracket extraction.
"""
import numpy as np

from regpara import (
    Grid,
    build_g,
    build_pi,
    extract_brackets,
    g_as_model,
    random_brackets,
    structure,
    validate_model,
)
from regpara.algebra import BaseSymbol, PlusMonomial
from regpara.models import plus_bound

S = structure("bhz")
grid = Grid(1, 512, np.pi)
# one bracket per coordinate, at its homogeneity: g-side i from seed 20 + i,
# Pi-side i from seed 1020 + i
g_brackets, pi_brackets = random_brackets(S, grid, seed=20)
print("free coordinates of the model space:")
for r in g_brackets:
    print(f"  g-side  {S.plus_gens[r]!s:>6}  {r}")
for n in pi_brackets:
    print(f"  Pi-side {S.base_gens[n]!s:>6}  {n}")

g = build_g(S, grid, g_brackets)
print(f"\nbuilt g on {len(g.values)} generators (derivative members filled "
      f"by diagonal differentiation)")
model = build_pi(S, grid, g, pi_brackets)
print(f"built Pi on {len(model.pi) - 1} symbols (positive ones by reconstruction)")

vrep = validate_model(model, samples=30)
print(f"model conditions (a)-(d) plus identities: {'pass' if vrep.ok else 'FAIL'}")

data = extract_brackets(model)
worst = max(
    np.max(np.abs(data.pi_side[BaseSymbol(n, (0,))] - pi_brackets[n].values))
    / np.max(np.abs(pi_brackets[n].values))
    for n in pi_brackets
)
print(f"Pi-bracket round trip: {worst:.2e}")

Mg = g_as_model(S, grid, g, plus_bound(S))
gdata = extract_brackets(Mg, m=0, with_reports=False)
worst_g = max(
    np.max(np.abs(gdata.g_side[PlusMonomial.of_gen(r, 1)] - g_brackets[r].values))
    / np.max(np.abs(g_brackets[r].values))
    for r in g_brackets
)
print(f"g-bracket round trip: {worst_g:.2e}")
