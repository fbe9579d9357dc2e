"""thetakit: guaranteed-accuracy Jacobi theta functions with a verified identity catalog.

Evaluation of the four theta functions and the two-characteristic
family with certified truncation, argument/modulus reduction into the
fast-convergence regime, notation adapters, and a machine-readable
catalog of classical theta identities with a randomized verification
harness.  See the cli module (or the installed "thetakit" command) for
the command-line front end.
"""

from types import ModuleType as _ModuleType

from .core import (
    Characteristics,
    ModularParameter,
    TruncationError,
    gauss_product_theta4,
    theta,
    theta1_prime0,
    theta_char,
    theta_constants,
    theta_product,
    truncation_index,
)
from .identities import (
    Identity,
    ParseError,
    ResidualReport,
    UnknownIdentityError,
    VariableBinding,
    builtin_catalog,
    catalog_tsv,
    dual_vars,
    evaluate_identity,
    format_identity,
    koornwinder_equivalence_check,
    parse_identity,
    verify,
)
from .notation import (
    big_theta,
    convert_characteristics,
    elliptic_k,
    multiplicative_coords,
)
from .reduction import (
    HalfPeriod,
    LatticeDecomposition,
    ModularStep,
    ThetaTransformRecord,
    apply_modular_step,
    eval_reduced,
    full_reduction,
    half_period_shift,
    reduce_tau,
    reduce_u,
    zeros_of,
)

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
