"""Divergence estimation and large-deviation experiment toolkit.

The package builds power-family and weight-induced divergence
generators, estimates parameters through the convex-dual plug-in
criterion on weighted samples, and probes the asymptotics with exact
finite-sample rate computations and seeded Monte Carlo harnesses.
The names imported below are the public API.
"""

from .divergences import (
    GAMMA_LIMIT_TOL,
    INF,
    ConjugateSpec,
    CressieRead,
    DivergenceSpec,
    cell_divergence,
)
from .errors import (
    DivlabError,
    DomainError,
    EnumerationLimitError,
    IntegrationError,
    NumericError,
    RootFindError,
    ValidationError,
)
from .weights import (
    ExponentialOne,
    NormalOneOne,
    PoissonOne,
    ShiftedBernoulli,
    WeightInducedDivergence,
    WeightLaw,
    chernoff,
    chernoff_argmax,
    induced_divergence,
    weight_law,
)
from .models import (
    Categorical,
    ExponentialFamilyModel,
    ExponentialScale,
    GaussianLocation,
    ParametricModel,
    PoissonNatural,
    make_model,
)
from .estimation import (
    EstimateReport,
    WeightedEmpiricalMeasure,
    divergence_between,
    estimate_phi_dual,
    minimum_dual_estimator,
    minimum_dual_estimator_batch,
)
from .seeding import derive_seed, derived_rng
from .sanov import (
    ConditionalRateRecord,
    MLLDPReport,
    Partition,
    PartitionNeighborhood,
    RateTable,
    SandwichReport,
    ShrinkTable,
    cell_probabilities,
    conditional_ldp_mc,
    enumerate_count_vectors,
    largest_remainder_counts,
    log_occupation_probability,
    ml_ldp_gap,
    neighborhood_inf_divergence,
    sandwich_check,
    sanov_rate_convergence,
    shrink_epsilon_limit,
)
from .bahadur import (
    EfficiencyRecord,
    FunctionalStatistic,
    GenericSlopeRecord,
    TailTrendTable,
    efficiency_compare,
    empirical_slope_trend,
    slope_generic,
    slope_min_divergence,
)
from .clt import (
    MCReport,
    STATISTIC_MAP,
    estimator_distribution_compare,
    weighted_clt_check,
    weighted_lln_check,
)
from .reporting import (
    format_real,
    read_data_csv,
    render_json,
    write_csv,
    write_json,
)

__version__ = "0.1.0"
