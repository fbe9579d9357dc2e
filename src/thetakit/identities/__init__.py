"""Identity catalog, DSL, and verification engine."""

from types import ModuleType as _ModuleType

from .catalog import (
    DF5_PARTNER,
    J_DUAL,
    MANIFEST,
    builtin_catalog,
    canonical_form,
    catalog_by_id,
    catalog_ids,
    catalog_tags,
    catalog_tsv,
)
from .dsl import (
    DTHETA1,
    GAUSS4,
    PI_CONST,
    Identity,
    LinearForm,
    ParseError,
    Term,
    ThetaFactor,
    format_identity,
    parse_identity,
    structurally_equal,
)
from .engine import (
    DEFAULT_BOX,
    STRESS_BOX,
    KoornwinderReport,
    ResidualReport,
    SamplingBox,
    UnknownIdentityError,
    VariableBinding,
    dual_vars,
    evaluate_identity,
    koornwinder_equivalence_check,
    verify,
)

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
