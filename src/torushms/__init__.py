"""Desk-scale homological mirror symmetry on the flat two-torus:
truncated Novikov arithmetic, combinatorial Floer triangle products of
straight branes, theta functions on the Tate curve, K-theory of its
coherent sheaves, the Lagrangian cobordism group, and the dictionary
identifying the two sides."""

from .errors import (
    BadBase,
    BadGcd,
    DegenerateConfiguration,
    MarkerCollision,
    NonElementary,
    NonTransverse,
    NonUnit,
    NullClass,
    ParseError,
    TorushmsError,
    UnanchoredSlope,
    ZeroSeries,
)
from .novikov import NovikovSeries, fractional_power, invert, norm, val
from .tate import (
    SectionCoeffs,
    TatePoint,
    conjugate_zero,
    eval_section,
    point_mul,
    point_pow,
    section_through,
    section_vanishes_at,
    theta_eval,
    theta_eval_raw,
)
from .torus import (
    Brane,
    LocalSystem,
    index_of,
    intersections,
)
from .floer import (
    CFSpace,
    FloerElement,
    assoc_defect,
    cf,
    cone_criterion_mu2_checks,
    generator_element,
    mu1,
    mu2,
    mu2_bruteforce,
    mu2_triangles,
    vanishes_truncated,
    zero_element,
)
from .sheafk import (
    Bundle,
    K0Class,
    RelationBounds,
    RelationTriple,
    SheafSum,
    Skyscraper,
    iso_pair,
    k0_class,
    line_bundle,
    o_of_n_p0,
    relation_suite,
    ses_atiyah_coprime,
    ses_divisor,
    ses_jordan_tower,
)
from .cobord import (
    CobordClass,
    CurveClass,
    class_of_sum,
    eta,
    flux_of,
    normal_form,
    pl_polyline_flux,
    pl_surgery_flux,
    relation_check,
    rho_reference,
    surgery,
    zeta,
)
from .mirror import (
    MirrorPair,
    mirror_of_sheaf,
    theta_floer_equiv,
    theta_sharp,
    zeta_injectivity_witness,
)

from . import config  # noqa: F401  (the torushms.config.RelationBounds alias)

__version__ = "0.1.0"
