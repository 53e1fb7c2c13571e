"""Planar Cantor-type segment constructions and multiscale best-line
(L^p) approximation diagnostics: generation of non-doubling segment
measures, Jones-type coefficients and square functions, density and
rectifiability probes, and a net-lattice corona decomposition for atomic
measures."""

from .beta import (BetaResult, ScaleGrid, beta, beta_both, beta_both_points,
                   beta_lower_bound_probe, increment_pair, increment_scales,
                   square_function, sum_squares)
from .cantor import (DOWN, UP, CantorMeasure, PointAddress, Schedule,
                     children, classify, generate, locate, point_of, refine,
                     sample_address, schedule_custom, schedule_tame,
                     schedule_thm11, schedule_thm12, segment_of, transport,
                     transport_cells)
from .corona import (CoronaTree, Lattice, LatticeCube, build_lattice,
                     corona_decompose, packing_report)
from .density import (DensityProfile, DoublingBallFamily, build_mu_tilde,
                      density_profile, doubling_descent, doubling_scales,
                      maximal_function, restricted_maximal_comparison,
                      unrectifiability_witness)
from .errors import (ConfigError, EmptyBallError, InvariantViolationError,
                     ResourceBudgetError, ScheduleExhaustedError)
from .geometry import Ball, Line, RationalPoint, WeightedSegment, diameter
from .measures import (AtomicMeasure, SegmentMeasure, atomize, dumps_measure,
                       loads_measure, read_measure, write_measure)

__version__ = "0.1.0"
