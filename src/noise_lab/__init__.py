"""noise-lab: exact verification of finite noise-type Boolean algebras.

Builds finite product probability spaces over independent cells, realizes
the Boolean algebra of cell sets with its commuting conditioning
projections, and checks the chaos-decomposition, spectral and
regular-open-set identities of that setting with exact rational arithmetic.
"""

from .boolalg import BoolElem, Subalgebra
from .chaos import (
    Classification,
    DefectCertificate,
    NotAdditiveError,
    atomless_defect,
    classify,
    defect_bound_check,
    first_chaos_basis,
    product_test,
    satisfies_additivity,
    sigma_field_generated,
    split_check,
)
from .config import ConfigError, ModelConfig, emit_config_dict, load_model_config
from .geometry import (
    Embedding,
    boundary_dichotomy,
    build_embedding,
    inner_approx,
    monotone_limit_check,
    sample_hom,
    spectral_set_map,
)
from .model import (
    Cell,
    NoiseModel,
    RandomVariable,
    fair_coin,
    inner_product,
    project,
    project_oracle,
    projections,
    sigma_field_of,
    uniform_cell,
    verify_projection_laws,
    walsh_decompose,
    walsh_reconstruct,
)
from .regopen import (
    FiniteSpace,
    RegOpen,
    finite_space_regopen,
    grid_scale,
    make_regopen,
    verify_reg_laws,
)
from .spectrum import (
    SpectralSpace,
    build_spectral_space,
    check_atom_of_sigma_x,
    sigma_x,
    spectral_measure,
    spectral_set,
    subspace_of_event,
    verify_independence,
    verify_sigma_join,
)
from .suite import Report, emit_spectrum_report, run_verification_suite

__version__ = "0.1.0"
