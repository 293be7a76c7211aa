"""regpara: concrete regularity structures and paracontrolled calculus on
periodic grids.

Symbolic side (exact rationals): graded bases with coproducts, characters and
their convolution group, decorated-tree constructions with the canonical /
non-canonical change of basis, and assumption checkers.

Analytic side (numpy): dyadic block decompositions, paraproducts and their
modified / two-parameter versions, Hölder-type norm estimation, and the
translation algorithms between models, bracket data, modelled distributions,
and paracontrolled systems.
"""

from .algebra import (
    BaseSymbol,
    ConcreteRegularityStructure,
    FreeVector,
    PlusMonomial,
    polynomial_structure,
)
from .blocks import (
    BlockDecomposition,
    derivative,
    fourier_multiplier,
    j_operator,
    low_pass,
    lp_block,
    make_partition,
)
from .characters import Character, field_character
from .grid import Field, Grid, TwoParamField, read_field, write_field
from .library import RULES, basis, structure
from .models import (
    BracketData,
    Model,
    build_g,
    build_pi,
    extract_brackets,
    g_as_model,
    random_brackets,
    reconstruct,
)
from .norms import (
    NormReport,
    SeparableFamily,
    d_family_report,
    holder_norm,
    synthesize,
    two_param_norm,
)
from .paraproducts import (
    commutator,
    modified_paraproduct,
    paraproduct,
    resonant,
    smooth_part,
    two_param_modified,
    two_param_paraproduct,
)
from .rules import Rule, TreeBasis, enumerate_basis, export_structure
from .translation import (
    ModelledDistribution,
    ParacontrolledSystem,
    lambda_cross_check,
    md_from_paracontrolled,
    md_to_paracontrolled,
    random_md_brackets,
    reconstruction_report,
    validate_md,
    validate_model,
)
from .trees import DecoratedTree, TreeAlgebra, parse_tree, serialize

__version__ = "0.1.0"
