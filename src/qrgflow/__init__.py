"""Correlation measures along real-space block-renormalisation coupling flows.

Two spin-chain models (anisotropic Heisenberg and anisotropic XY) are reduced
three sites at a time; the package iterates the resulting coupling maps,
builds the closed-form two-site edge states, evaluates entanglement and
discord-type measures on them, and fits the finite-size scaling of measure
derivatives near the critical couplings.  Brute-force oracles (dense Jacobi
diagonalisation, measurement-grid searches) cross-check every closed form.
"""

from .errors import (
    DomainError,
    ExtremumAtBoundary,
    InvalidDistribution,
    NonPositiveValue,
    NonUniformGrid,
    NotDensityMatrix,
    NotSymmetric,
    NotXStructured,
)
from .flow import ITERATION_CAP, advance, effective_size, iterate, sweep
from .measures import (
    MEASURE_NAMES,
    binary_mix_entropy,
    chsh_max,
    concurrence,
    discord_optimal,
    discord_sigma_xy,
    discord_sigma_z,
    geometric_discord,
    measure_all,
    measure_set_values,
    mid,
    min_nonlocality,
    mutual_information,
    shannon_entropy,
)
from .models import (
    MODELS,
    XXZParams,
    XYParams,
    block_hamiltonian,
    fixed_points,
    g_of_gamma,
    gamma_of_g,
    ground_energy,
    ground_states,
    q_of_delta,
    reduced_state,
    xxz_rg_step,
    xxz_rho13,
    xy_rg_step,
    xy_rho13,
)
from .oracle import brute_force_chsh, brute_force_discord, diag_symmetric, partial_trace_mid
from .scaling import (
    DerivativeCurve,
    derivative_extremum,
    find_extremum,
    loglog_fit,
    numeric_derivative,
    scaling_report,
)
from .verify import run_all
from .xstate import (
    XState,
    from_bloch,
    marginal_a,
    marginal_b,
    random_xstates,
    spectrum,
    to_bloch,
    xstate_from_matrix,
    xstate_to_matrix,
)

__version__ = "0.1.0"
