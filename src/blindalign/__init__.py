"""Blind interference alignment on homogeneous block-fading broadcast channels.

Decides feasibility of K-user 2x1 broadcast configurations from the
coherence time and per-user fading-block offsets, builds verified
slot-level schedules of super-symbol threads, numerically witnesses
alignment and decodability on random channel realizations, and counts or
estimates the probability that a group of users contains a feasible subset.
"""

from .errors import SearchBudgetExceeded
from .pattern import (
    ChannelConfig,
    block_index,
    group_profile,
    slot_map,
    group_slots,
    slot_group,
    pattern_matrix,
    is_feasible_pattern,
    enumerate_feasible_patterns,
)
from .feasibility import (
    check_feasible,
    FeasibilityReport,
    check_config,
    FeasibleRegion,
    feasible_region,
    find_feasible_subset,
)
from .diophantine import (
    verify_solution,
    certificate_count,
    closed_form_solution,
    closed_form_solution_3user,
    enumerate_certificates,
)
from .scheduler import (
    Schedule,
    build_schedule,
    ValidationReport,
    validate_schedule,
    schedule_to_dict,
    schedule_json,
    schedule_from_dict,
)
from .signaling import (
    MAGNITUDE_FLOOR,
    ALIGNMENT_TOL,
    DECODABILITY_TOL,
    beamforming_vectors,
    SummaryReport,
    Witness,
    verify_schedule_end_to_end,
)
from .counting import (
    CountResult,
    ProbabilityEstimate,
    gamma_count,
    f_low_3,
    f_2user,
    exact_count,
    probability_exact,
    p_upper_3,
    monte_carlo_p,
)

__version__ = "0.1.0"
