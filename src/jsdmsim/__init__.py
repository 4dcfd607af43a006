"""Interference-aware hybrid beamformer design and SC-FDE link simulation.

A grouped massive-MIMO uplink toolkit: one-ring channel statistics, the
generalized eigenbeamformer and its constant-modulus approximations (fully
connected, fixed and dynamic subarrays), per-bin ZF/LMMSE combining,
semi-analytic capacity, reduced-dimension channel estimation, beampatterns
and shifting-angle sweeps.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    CovarianceSet,
    GroupSpec,
    Scenario,
    build_covariances,
    ccm_one_ring,
    sample_channels,
    steering_matrix,
)
from .constrained import (
    AmTrace,
    AmTraces,
    ConstrainedBeamformer,
    dft_beamformer,
    dynamic_connection,
    dynamic_subarray,
    fixed_subarray,
    interlaced_mask,
    ordered_mask,
    pe_am,
    phase_extraction,
)
from .geb import UnconstrainedBeamformer, compute_geb, reduced_mutual_info
from .metrics import SweepSettings, beampattern, cdf, phi_sweep
from .statistics import GroupStatistics, expected_sinr, group_statistics, reduce

__all__ = [
    "AmTrace",
    "AmTraces",
    "ChannelRealization",
    "ConstrainedBeamformer",
    "CovarianceSet",
    "GroupSpec",
    "GroupStatistics",
    "Scenario",
    "SweepSettings",
    "UnconstrainedBeamformer",
    "beampattern",
    "build_covariances",
    "ccm_one_ring",
    "cdf",
    "compute_geb",
    "dft_beamformer",
    "dynamic_connection",
    "dynamic_subarray",
    "expected_sinr",
    "fixed_subarray",
    "group_statistics",
    "interlaced_mask",
    "ordered_mask",
    "pe_am",
    "phase_extraction",
    "phi_sweep",
    "reduce",
    "reduced_mutual_info",
    "sample_channels",
    "steering_matrix",
]
