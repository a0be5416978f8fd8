"""Three-layer sandwich beam laboratory.

Simulates two longitudinal wave layers coupled to a transverse bending
layer under (a) time-varying delayed boundary velocity feedback and (b)
dynamic boundary controls, verifies the energy decay and observability
structure at the discrete level, and synthesizes null controls from the
assembled control Gramian.
"""

from .params import (
    PhysicalParams,
    ConstantDelay,
    SinusoidalDelay,
    DelaySpec,
    ConstantDamping,
    ExponentialDamping,
    DampingSpec,
    GainConfig,
)
from .hypotheses import (
    BoundaryQuadForm,
    HypothesisReport,
    TheoreticalRates,
    InfeasibleRates,
    phi_matrix,
    is_negative_definite,
    validate_gains,
    select_mus,
    decay_bound,
)
from .discretize import (
    VARIANT_STABILIZED,
    VARIANT_CONTROLLED,
    Grid1D,
    DofLayout,
    SemiDiscreteSystem,
    DiscreteState,
    build_system,
    hspace_norm,
)
from .delayline import (
    LookupBeforeHistory,
    TraceHistory,
    init_history,
    hermite_stencil,
    delay_samples,
    delay_windows,
    window_integrals,
)
from .timestep import (
    SchemeConfig,
    SimOutput,
    IntegrationError,
    simulate,
)
from .decay import (
    DecayReport,
    check_dissipation_identity,
    lyapunov_trace,
    fit_decay_rate,
    check_theoretical_bound,
    check_trace_estimates,
)
from .hum import (
    ObservationTriple,
    HumSolution,
    solve_adjoint,
    gramian,
    compute_null_control,
    observability,
)

__version__ = "0.1.0"
