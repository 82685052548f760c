"""padicmech: exact p-adic arithmetic, analysis, mechanics, probability, quantum."""

from padicmech.core import (
    Ball,
    DomainViolation,
    PadicError,
    PadicInt,
    PadicNumber,
    PrimeMismatch,
    archimedean_expand,
    ball_relation,
    metric,
    monna_embed,
    padic_norm,
    padic_valuation,
    parse_padic_int,
    parse_padic_number,
    within,
)
from padicmech.series import (
    PowerSeries,
    TailFloor,
    convergence_radius,
    definite_integral,
    digit_dilate,
    elementary,
    evaluate,
    factorial_valuation,
    parse_series,
    series_combine,
    sup_norm_probe,
)
from padicmech.multi import MultiPoly, compose_series
from padicmech.mechanics import (
    HamiltonianSpec,
    PhaseState,
    TrajectorySeries,
    closed_flow,
    closed_flow_series,
    energy_series,
    free_hamiltonian,
    hooke_hamiltonian,
    restriction_check,
    taylor_integrate,
    total_motivation_series,
    work_energy_audit,
)
from padicmech.prob import (
    FrequencyRecord,
    ball_volume,
    dual_limit_synthesize,
    stabilization_detect,
)
from padicmech.quantum import (
    GaussianRational,
    HilbertVector,
    PadicComplex,
    inner_product,
    interference_term,
    mixed_state_probabilities,
    oscillator_spectrum,
    plane_wave,
    rebasis_probabilities,
    schrodinger_residual,
)

__version__ = "0.1.0"
