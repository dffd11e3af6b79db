"""Gaussian measures of shifted sets under the squared-coordinate
majorization order, with applications to calibrating p-mean tests."""

from .majorization import (MajorizationVerdict, g_canonical, majorize_compare,
                           muirhead_chain, random_group_element,
                           schur2_compare)
from .means import (MeanKind, MeanSpec, Schur2Value, SchurCharacter,
                    classify_mean, p_mean, pq_mean, truncated_mean)
from .sets import (SetSpec, check_b, classify_set, complement, contains, cube,
                   format_set, hat_b, parse_set, p_ball, pq_ball)
from .gauss_measure import GaussianShiftQuery, MeasureEstimate, measure
from .solvers import (ShiftSolution, TestDesign, critical_value,
                      normalize_direction, shift_solution, tail_probability)
from .are_analysis import (AreResult, are, are_direction_sweep, are_extremes,
                           are_limit_trend)
from .verify import (CounterexampleConfig, EmpiricalDesign, empirical_power,
                     check_rotation_monotonicity, check_schur2_monotonicity,
                     run_counterexample)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
