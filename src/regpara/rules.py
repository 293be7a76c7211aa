"""Rule-driven enumeration of tree bases and their non-canonical companions,
assumption-(D) scans, and export to concrete regularity structures.

The rule object is a simplified stand-in for BHZ conformity: a node's child
edge-type multiset must be contained in one of the allowed products, kernel
edges graft non-empty trees, noise edges graft the unit only, and polynomial
and e-decorations are capped to keep the bases finite.  Trees carry the n, e
and f decorations only: the extended (o-) decoration of BHZ is not modelled.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ConcreteRegularityStructure,
    FreeVector,
    BaseSymbol,
    PlusMonomial,
    Multi,
    mi_abs,
    mi_below_abs,
    mi_range,
    mi_str,
    mi_zero,
    poly_right_witness,
)
from .trees import (
    DecoratedTree,
    TreeAlgebra,
    graft,
    is_name,
    serialize,
    tree_product,
    unit_tree,
    x_mul,
)

GENERATION_LIMIT = 4000
EDGE_LIMIT = 30


class SubcriticalityError(RuntimeError):
    pass


@dataclass(frozen=True)
class Rule:
    """Generation rule: edge types, allowed per-node products, and caps."""

    dim: int
    cutoff: Fraction
    noises: tuple[tuple[str, Fraction], ...]
    kernels: tuple[tuple[str, Fraction], ...]
    products: tuple[tuple[tuple[str, int], ...], ...]
    polybound: int = 1
    max_e: int = 1
    name: str = "rule"

    def __post_init__(self):
        for nm, _ in (*self.noises, *self.kernels):
            if not is_name(nm):
                raise ValueError(f"edge type {nm!r}: a name is letters, digits, '_' and '-'")
        object.__setattr__(self, "noises", tuple(sorted(self.noises)))
        object.__setattr__(self, "kernels", tuple(sorted(self.kernels)))
        object.__setattr__(
            self, "products", tuple(sorted(tuple(sorted(p)) for p in self.products))
        )

    def types(self) -> dict[str, Fraction]:
        out = dict(self.noises)
        for k, v in self.kernels:
            if k in out:
                raise ValueError(f"edge type {k} declared twice")
            out[k] = v
        return out

    def allows(self, multiset: dict[str, int]) -> bool:
        for prod in self.products:
            cap = dict(prod)
            if all(cap.get(t, 0) >= m for t, m in multiset.items()):
                return True
        return not multiset


def _root_multiset(t: DecoratedTree) -> dict[str, int]:
    out: dict[str, int] = {}
    for b in t.branches:
        out[b.edge_type] = out.get(b.edge_type, 0) + 1
    return out


def _conforms(rule: Rule, t: DecoratedTree) -> bool:
    if not rule.allows(_root_multiset(t)):
        return False
    return all(_conforms(rule, b.child) for b in t.branches)


@dataclass
class TreeBasis:
    """Enumerated bases of one rule."""

    rule: Rule
    algebra: TreeAlgebra
    trees: list[DecoratedTree]        # full closure (arbitrary root n), homog < cutoff
    b_dot: list[DecoratedTree]        # canonical B.: closure trees with root n = 0
    b_dot_tilde: list[DecoratedTree]  # non-canonical B~. (f-decorated, n = 0)
    plus_trees: list[DecoratedTree]   # B_o^+: positive integrated trees

    def homog(self, t: DecoratedTree) -> Fraction:
        return self.algebra.homogeneity(t)


def enumerate_basis(rule: Rule) -> TreeBasis:
    """Generate all conforming trees below the cutoff, the non-canonical
    companion basis, and the plus-generator closure."""
    algebra = TreeAlgebra(rule.dim, rule.types())
    cutoff = Fraction(rule.cutoff)
    d = rule.dim
    noise_types = dict(rule.noises)
    kernel_types = dict(rule.kernels)

    def admissible(t: DecoratedTree) -> bool:
        if algebra.homogeneity(t) >= cutoff:
            return False
        if mi_abs(t.n_dec) > rule.polybound:
            return False
        return _conforms(rule, t)

    seeds = [unit_tree(d)]
    for nname in sorted(noise_types):
        seeds.append(graft(nname, mi_zero(d), unit_tree(d)))
    basis: dict[DecoratedTree, None] = {}
    queue = [t for t in seeds if admissible(t)]
    for t in queue:
        basis[t] = None
    while queue:
        if len(basis) > GENERATION_LIMIT:
            raise SubcriticalityError(
                f"rule {rule.name}: generated more than {GENERATION_LIMIT} trees; "
                "the rule does not look subcritical below the cutoff"
            )
        t = queue.pop()
        candidates: list[DecoratedTree] = []
        # polynomial decoration at the root
        for i in range(d):
            e = tuple(1 if a == i else 0 for a in range(d))
            candidates.append(x_mul(e, t))
        # kernel grafts; pure-polynomial arguments are left out, yet Delta
        # forms such grafts as left factors above the shipped cutoffs, where
        # export raises KeyError (ROADMAP item 2)
        if t.edge_count() > 0:
            for kname in sorted(kernel_types):
                for e in mi_range(d, rule.max_e):
                    candidates.append(graft(kname, e, t))
        # products with everything already generated
        if t.edge_count() > 0:
            for other in list(basis):
                if other.edge_count() > 0:
                    candidates.append(tree_product(t, other))
        for cand in candidates:
            if cand in basis or not admissible(cand):
                continue
            if cand.edge_count() > EDGE_LIMIT:
                raise SubcriticalityError(
                    f"rule {rule.name}: conforming tree with more than {EDGE_LIMIT} "
                    "edges below the cutoff; the rule does not look subcritical"
                )
            basis[cand] = None
            queue.append(cand)

    trees = sorted(basis, key=lambda t: (algebra.homogeneity(t), serialize(t)))
    b_dot = [t for t in trees if not any(t.n_dec)]

    # plus-generator closure: seed with right-slot trees of Delta over the
    # closure, then close under whole D^k-orbits and Delta+ factors.
    plus: dict[DecoratedTree, None] = {}

    def family(t: DecoratedTree) -> list[DecoratedTree]:
        """All positive e-decorated variants of one integrated tree."""
        (b,) = t.branches
        h0 = algebra.homogeneity(graft(b.edge_type, mi_zero(d), b.child))
        return [graft(b.edge_type, k, b.child) for k in mi_below_abs(d, h0)]

    pending: list[DecoratedTree] = []

    def add_family(t: DecoratedTree) -> None:
        for member in family(t):
            if member not in plus:
                plus[member] = None
                pending.append(member)

    for t in trees:
        for (_left, right), _c in algebra.delta(t).items():
            for tr, _m in right.gens:
                add_family(tr)
    while pending:
        if len(plus) > GENERATION_LIMIT:
            raise SubcriticalityError(
                f"rule {rule.name}: plus-generator closure exceeded {GENERATION_LIMIT}"
            )
        t = pending.pop()
        for (left, right), _c in algebra.delta_plus_tree(t).items():
            for tr, _m in left.gens + right.gens:
                add_family(tr)
    plus_trees = sorted(plus, key=lambda t: (algebra.homogeneity(t), serialize(t)))

    # non-canonical companions
    b_dot_tilde = []
    seen = set()
    for t in b_dot:
        ft = algebra.leading_ftree(t)
        if ft not in seen:
            seen.add(ft)
            b_dot_tilde.append(ft)

    return TreeBasis(
        rule=rule,
        algebra=algebra,
        trees=trees,
        b_dot=b_dot,
        b_dot_tilde=b_dot_tilde,
        plus_trees=plus_trees,
    )


# -- assumption (D) and the stronger claim -------------------------------------

def check_d_canonical(basis: TreeBasis) -> tuple[bool, str | None]:
    """Scan Delta tau, tau in B., for sigma (x) X^k terms with k != 0."""
    witness = poly_right_witness((serialize(t), basis.algebra.delta(t))
                                 for t in basis.b_dot if not t.is_unit)
    return witness is None, witness


def check_stronger_claim(basis: TreeBasis) -> tuple[bool, str | None]:
    """Eq-style check on the non-canonical basis: no right factor is a pure
    polynomial X^k; only the mandatory diagonal right factor 1 is exempt."""
    algebra = basis.algebra
    for t in basis.b_dot_tilde:
        if t.is_unit:
            continue
        for (left, right), c in algebra.delta_noncanonical(t).sorted_items():
            if right.is_poly:
                if any(right.poly):
                    return False, (
                        f"{serialize(left)} (x) X{mi_str(right.poly)} "
                        f"in Delta({serialize(t)})"
                    )
                if left != t or c != 1:
                    return False, (
                        f"non-diagonal unit term {serialize(left)} (x) 1 "
                        f"in Delta({serialize(t)})"
                    )
    return True, None


def ell_identity_defect(basis: TreeBasis, l: Multi, k: Multi, tname: str, t: DecoratedTree) -> FreeVector:
    """Delta(lI_k^t tau) - (lI_k^t (x) Id) Delta tau, which must contain only
    pure-polynomial left factors; returns the non-polynomial-left part."""
    algebra = basis.algebra
    lhs: list = []
    for can, c in algebra.to_canonical(t).items():
        for tree, c2 in algebra.ell_graft(l, k, tname, can).items():
            for (left, right), c3 in algebra.delta(tree).items():
                lhs.append(((left, right), c * c2 * c3))
    rhs: list = []
    for can, c in algebra.to_canonical(t).items():
        for (left, right), c2 in algebra.delta(can).items():
            for tree, c3 in algebra.ell_graft(l, k, tname, left).items():
                rhs.append(((tree, right), c * c2 * c3))
    defect = FreeVector(lhs) - FreeVector(rhs)
    bad = [
        ((left, right), c)
        for (left, right), c in defect.items()
        if left.branches
    ]
    return FreeVector(bad)


# -- export to a concrete regularity structure ----------------------------------

def export_structure(basis: TreeBasis, noncanonical: bool = False) -> ConcreteRegularityStructure:
    """Emit the ConcreteRegularityStructure with B. the canonical (or
    non-canonical) tree basis and B_o^+ the integrated positive trees."""
    algebra = basis.algebra
    d = basis.rule.dim

    plus_gens = {serialize(t): algebra.homogeneity(t) for t in basis.plus_trees}

    def plus_monomial(m: PlusMonomial) -> PlusMonomial:
        """Rename tree keys to their names; a name is the tree's str, by which
        keys are ordered, so the order holds."""
        for tr, _mult in m.gens:
            if serialize(tr) not in plus_gens:
                raise KeyError(f"integrated tree {serialize(tr)} missing from B_o^+")
        return PlusMonomial(tuple((serialize(tr), mult) for tr, mult in m.gens), m.poly)

    dplus_table = {}
    for t in basis.plus_trees:
        terms = []
        for (left, right), c in algebra.delta_plus_tree(t).items():
            terms.append(((plus_monomial(left), plus_monomial(right)), c))
        dplus_table[serialize(t)] = FreeVector(terms)

    if noncanonical:
        cores, delta, label = basis.b_dot_tilde, algebra.delta_noncanonical, "f-tree {} missing from B~."
    else:
        cores, delta, label = basis.b_dot, algebra.delta, "tree {} missing from B."
    core_names = {t: ("1" if t.is_unit else serialize(t)) for t in cores}

    def base_symbol(tree: DecoratedTree) -> BaseSymbol:
        core = tree.with_root_n(mi_zero(d))
        nm = core_names.get(core)
        if nm is None:
            raise KeyError(label.format(serialize(core)))
        return BaseSymbol(nm, tree.n_dec)

    delta_table = {}
    for t in cores:
        if t.is_unit:
            continue
        terms = []
        for (left, right), c in delta(t).items():
            terms.append(((base_symbol(left), plus_monomial(right)), c))
        delta_table[core_names[t]] = FreeVector(terms)
    base_gens = {core_names[t]: algebra.homogeneity(t) for t in cores}

    return ConcreteRegularityStructure(
        dim=d,
        cutoff=Fraction(basis.rule.cutoff),
        plus_gens=plus_gens,
        base_gens=base_gens,
        dplus_table=dplus_table,
        delta_table=delta_table,
        name=basis.rule.name + ("-noncanonical" if noncanonical else "-canonical"),
    )
