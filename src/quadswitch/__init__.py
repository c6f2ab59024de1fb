"""Strongly regular graphs from quadrics in PG(n,2), their Godsil-McKay
switches, and the binary codes that certify the switched graphs as new."""

from .gf2geom import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    GeometryError,
    QuadraticForm,
    QuadswitchError,
    Subspace,
    canonical_form,
    count_external_lines_through,
    perp,
    quadric_size,
    span,
)
from .srg import (
    GammaCertificate,
    Graph,
    NotStronglyRegular,
    SrgParams,
    build_gamma,
    certified_gamma,
    certify_gamma,
    expected_params,
    verify_srg,
    verify_srg_near,
)
from .switching import (
    NotSwitchingSet,
    SearchExhausted,
    Switch,
    SwitchCertificate,
    SwitchConfig,
    SwitchingError,
    T_formula,
    build_S,
    build_switch,
    gm_switch,
    make_config,
    validate_switching_set,
    verify_switch,
)
from .codes import (
    BinaryCode,
    CodeError,
    code_from_graph,
    contains,
    min_weight_codewords,
    weight_distribution,
)
from .distinguish import (
    Family,
    FamilyReport,
    GraphSignature,
    are_isomorphic,
    build_family,
    classify_family,
    signature,
)

__version__ = "0.1.0"
