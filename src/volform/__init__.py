"""volform: exact symbolic calculus for divergence-free vector fields on
explicitly presented affine varieties.

Everything is computed over exact rationals; there is no floating point in
the core.  See the README for the document language and the CLI.
"""

from .algebra import LaurentPoly
from .avdp import (
    FULL_RING,
    IDEAL_WITNESS,
    UNKNOWN,
    SemicompatVerdict,
    bracket_potential,
    kernel_basis,
    monomials_up_to,
    semicompat_bounded,
    spans_wedge_square,
    verify_bracket_identity,
    verify_flow_jacobian,
    verify_potential,
)
from .calculus import (
    DiffForm,
    VectorField,
    VolumeForm,
    contract_volume,
    diff_form,
    divergence,
    exterior_derivative,
    forms_equal,
    interior_product,
    is_invariant,
    is_tangent,
    lie_bracket,
    lnd_flow,
    pullback_form,
    scalar_form,
    vector_field,
    volume_form,
    wedge,
)
from .checks import RunFlags, execute, run_check
from .dsl import format_document, parse, parse_polynomial
from .errors import VolformError
from .groups import GroupPresentation, adjoint_matrix, group_presentation, submodular
from .model import CheckDirective, Model
from .scenarios import (
    product,
    scenario_by_name,
    sl2,
    surface,
    torus,
    xm1,
)
from .variety import (
    Chart,
    Point,
    SubstitutionAction,
    action,
    chart,
    sample_point,
)

__version__ = "0.1.0"

__all__ = [
    "CheckDirective",
    "Chart",
    "DiffForm",
    "FULL_RING",
    "GroupPresentation",
    "IDEAL_WITNESS",
    "LaurentPoly",
    "Model",
    "Point",
    "RunFlags",
    "SemicompatVerdict",
    "SubstitutionAction",
    "UNKNOWN",
    "VectorField",
    "VolformError",
    "VolumeForm",
    "action",
    "adjoint_matrix",
    "bracket_potential",
    "chart",
    "contract_volume",
    "diff_form",
    "divergence",
    "execute",
    "exterior_derivative",
    "format_document",
    "forms_equal",
    "group_presentation",
    "interior_product",
    "is_invariant",
    "is_tangent",
    "kernel_basis",
    "lie_bracket",
    "lnd_flow",
    "monomials_up_to",
    "parse",
    "parse_polynomial",
    "product",
    "pullback_form",
    "run_check",
    "sample_point",
    "scalar_form",
    "scenario_by_name",
    "semicompat_bounded",
    "sl2",
    "spans_wedge_square",
    "submodular",
    "surface",
    "torus",
    "vector_field",
    "verify_bracket_identity",
    "verify_flow_jacobian",
    "verify_potential",
    "volume_form",
    "wedge",
    "xm1",
]
