"""Flexible antenna array simulator.

Models arrays whose surface shape (rotation, bend, fold) is set by a single
scalar angle, synthesizes the resulting multipath channels, and evaluates
channel power, angle Cramer-Rao bounds, and multi-sector zero-forcing
sum-rates, with a Gaussian-process optimizer for the shape angles.
"""

__version__ = "0.1.0"

from .bayesopt import GpDataset, Kernel, OptimizeResult, optimize, propose_next
from .channel import PathSet, channel_power, flexible_channel, sector_block
from .errors import (ConfigError, FlexArrayError, GramConditionError, OptimizationError,
                     PatternBoundaryError, RankDeficiencyError, SingularFisherError)
from .estimation import FisherMatrix, fisher_matrix, mean_angle_crb, optimal_psi_for_crb
from .geometry import (ArrayConfig, ArrayGeometry, FlexModel, bent_geometry, flex_geometry,
                       folded_geometry, mounted_geometry, planar_positions, rotated_geometry)
from .harness import (Scenario, StrategyResult, generate_scenario, optimize_strategy,
                      run_experiment)
from .precoding import effective_gain, jfp_sumrate, single_sector_sumrate, sjfp_sumrate
from .radiation import (PatternKind, PatternSpec, column_amplitudes, pattern_and_derivatives,
                        pattern_derivatives, pattern_gain, wrap_angle)

__all__ = [name for name in dir() if not name.startswith("_")]
