"""dcspec: spectra and pseudospectra of doubly characteristic quadratic
Weyl operators, with the phase-space machinery that controls them."""

from importlib import resources as _resources

from .errors import (
    DcspecError,
    DegenerateSpectrumError,
    DeltaTooLargeError,
    DomainError,
    InvalidPhaseError,
    NotCanonicalError,
    NotFbiPhaseError,
    NumericalFailureError,
    PreconditionError,
    SingularBlockError,
    SymbolSchemaError,
)
from .symplectic import (
    HamiltonMap,
    QuadraticForm,
    build_quadratic_form,
    evaluate,
    hamilton_map,
    phase_point,
    standard_j,
    symplectic_product,
)
from .singular import (
    AveragedForm,
    PositivityReport,
    RealSubspace,
    VanishingOrder,
    averaged_real_part,
    flow_vanishing_order,
    positivity_equivalence_check,
    singular_space,
)
from .lattice import (
    Admissibility,
    LatticeSpectrum,
    RegionSpec,
    Schedules,
    admissible,
    dist_to_spectrum,
    excluded_area_fraction,
    exclusion_discs,
    lattice_points,
    sample_admissible,
    schedules,
    simplex_volume,
    stable_eigenvalues,
    strip_count,
)
from .weights import (
    CanonicalMap,
    DeformedSymbol,
    QuadraticWeight,
    averaging_identity_defect,
    canonical_normalizer,
    deformed_symbol,
    delta_max,
    ellipticity_margin,
    j_profile,
    weight_gq,
)
from .fbi import (
    BlockCanonicalMap,
    CanonicityDefects,
    FbiPhase,
    PhiWeight,
    canonicity_conditions,
    kappa_of_phase,
    phase_of_kappa,
    phase_value,
    phi_weight,
    standard_phase,
    y_critical,
)
from .weyl import (
    HermiteTruncation,
    TruncatedWeylOperator,
    probe_theorem,
    pseudospectrum_grid,
    quantize_quadratic,
    resolvent_norm,
    scaling_check,
    spectrum_truncated,
    suggested_degree,
)

__version__ = "0.1.0"


def bundled_symbol_path(name):
    """Filesystem path of a bundled symbol file, e.g. ``"kfp.json"``."""
    ref = _resources.files("dcspec") / "symbols" / name
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled symbol named {name!r}")
    return str(ref)
