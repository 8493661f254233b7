"""Simulation and verification toolkit for orthomartingale difference
random fields: partial-sum processes, Holder/Schauder statistics, and
deviation bounds with numerically traced constants."""

from .bounds import (
    BoundConstants,
    BoundValue,
    ExponentFit,
    I_integral,
    TailModel,
    base_constants,
    bounded_by,
    bounded_rhs,
    cond_wip_check,
    exponent_fit,
    gaussian_product,
    lemma3_moment_sum,
    lemma_svarying_partial_sum,
    recurse_constants,
    tail_eval,
    thm1_rhs,
    thm2_rhs,
    unit_tail,
    verify_values,
    weibull_envelope,
)
from .errors import (
    DegenerateModulusError,
    InsufficientDataError,
    InvalidInputError,
    InvalidRangeError,
    NumericFailureError,
    OrthofieldError,
    TooLargeError,
)
from .generators import (
    GeneratorSpec,
    decoupled_product,
    generate_batch,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    moving_average,
    product_rademacher,
    spec_from_json,
    spec_to_json,
    spec_variance,
    zero_field,
)
from .harness import (
    ExperimentConfig,
    Report,
    config_from_dict,
    run_experiment,
)
from .holder import (
    Modulus,
    SlowlyVarying,
    const_factor,
    full_grid_count,
    grid_seq_norms,
    iter_log,
    log_power,
    modulus,
    modulus_eval,
    modulus_from_dict,
)
from .lattice import padded_prefix, validate_shape, volume
from .stats import wilson_interval

__version__ = "0.1.0"
