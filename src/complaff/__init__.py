"""Exact affine geometry on the set of complements of a fixed subspace.

Scalars range over finite fields and the rational quaternions; all
arithmetic is exact.  See the README for the JSON schemas and the CLI.
"""

from .algebra import (
    ExtensionField,
    PrimeField,
    Quaternions,
    Sampled,
    Scalar,
    ScalarDomain,
)
from .chart import (
    AffineChart,
    AffineLine,
    Collineation,
    ComplementCoord,
    are_complementary,
    charts_equal,
    line_through,
    postcompose_w,
    precompose_u,
    split_scalar_central,
    symmetric_chart,
)
from .dualspread import (
    DualSpreadCandidate,
    SingularSet,
    TransversalFamily,
    family_from_dual_spread,
    family_to_coord,
    family_to_dual_spread,
    coord_to_family,
    is_dual_spread,
    verify_family,
)
from .errors import (
    ChartMismatchError,
    ConfigError,
    DomainMismatchError,
    InfiniteDomainError,
    ReconstructionError,
)
from .linalg import MatrixK
from .projective import (
    Subspace,
    ZStructure,
    all_complements,
    hyperplanes,
    hyperplanes_not_containing,
    is_complement,
)
from .reguli import (
    ConeDecomposition,
    Regulus,
    cone_decompose,
    line_transversal_image,
    perspectivity,
    reconstruct_from_transversals,
    regular_line_regulus,
    regulus_through,
    standard_regulus,
    transversals_of,
)

__version__ = "0.1.0"
