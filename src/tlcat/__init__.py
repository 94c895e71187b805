"""Exact symbolic computation in diagram categories of planar matchings:
braiding and twist structure, fusion of modules with monodromy analysis at
generic and root-of-unity parameters, and Yang-Baxter integrability for
the ordinary and dilute families.

All arithmetic is exact (Laurent polynomials in the parameter s, rational
points, or cyclotomic fields); no floating-point appears on any
verification path.
"""

from .diagram import (
    Diagram,
    InterfaceMismatch,
    dilute_diagram,
    e_diagram,
    enumerate_diagrams,
    identity_diagram,
)
from .morphism import (
    CoeffDomain,
    GENERIC,
    Morphism,
    big_cap,
    big_cup,
    cups,
    domain_for,
    e,
    identity,
    parse_morphism,
    t,
    t_inv,
)
from .scalar import (
    NotInvertibleInRing,
    PoleAtSpecialization,
    Scalar,
    Specialization,
    parse_scalar,
)
from .braid import commutor, commutor_inverse, verify_braid_suite
from .twist import gamma_eigenvalue, twist_element, twist_inverse, verify_twist_suite
from .standard import (
    RegularModule,
    StandardModule,
    act,
    standard_dimension,
    verify_rigidity,
    wenzl_jones,
)
from .fusion import (
    AmbiguousEigenvalue,
    EigenvalueMismatch,
    FusedModule,
    expected_summands,
    fusion_decomposition_generic,
    jordan_type,
    monodromy_eigenvalue,
    verify_fusion_suite,
)
from .dilute import dilute_commutor, verify_dilute_braiding
from .integrable import (
    face,
    transfer_matrix,
    verify_boundary_ybe,
    verify_integrable_suite,
    verify_inversion,
    verify_transfer_commute,
    verify_ybe,
)
from .render import render_ascii, render_svg
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
