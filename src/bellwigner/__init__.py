"""Desk-scale simulator of the extended Wigner's-friend (Bell-Wigner) test.

The package builds the four-photon experiment's states and observables over
a fixed tensor-product basis, computes exact and Monte Carlo CHSH
statistics, enumerates the classical bound, and runs three interpretation
backends (pilot wave, spontaneous localization, many worlds) to show they
agree: unitary statistics for microscopic friends, classical statistics for
macroscopic ones.
"""

from .chsh import (
    ChshReport,
    JointOutcome,
    chsh_exact,
    chsh_sampled,
    classical_assignments,
    classical_max,
    joint_distribution,
    s_from_correlators,
)
from .interpretations import (
    ATOM_PARAMS,
    Branch,
    FriendScale,
    GrwParams,
    GrwSimResult,
    INSTRUMENT_PARAMS,
    agreement_report,
    grw_exact_probability,
    grw_linear_probability,
    grw_simulate,
    many_worlds_branches,
)
from .observables import (
    AlgebraReport,
    Observable,
    make_observable,
    verify_algebra,
)
from .states import (
    FULL_LAYOUT,
    StateVector,
    bell_wigner_state,
    correlate_friend,
    entangled_pair,
    plus_photon,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM_PARAMS",
    "AlgebraReport",
    "Branch",
    "ChshReport",
    "FULL_LAYOUT",
    "FriendScale",
    "GrwParams",
    "GrwSimResult",
    "INSTRUMENT_PARAMS",
    "JointOutcome",
    "Observable",
    "StateVector",
    "agreement_report",
    "bell_wigner_state",
    "chsh_exact",
    "chsh_sampled",
    "classical_assignments",
    "classical_max",
    "correlate_friend",
    "entangled_pair",
    "grw_exact_probability",
    "grw_linear_probability",
    "grw_simulate",
    "joint_distribution",
    "make_observable",
    "many_worlds_branches",
    "plus_photon",
    "s_from_correlators",
    "verify_algebra",
]
