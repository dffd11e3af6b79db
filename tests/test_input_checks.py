"""Public entry points refuse the inputs they cannot answer for with a
ValueError that names the fault."""

import math

import numpy as np
import pytest

from schur2.are_analysis import are_limit_trend
from schur2.gauss_measure import pball_radius_cdf, rotate2
from schur2.majorization import majorize_compare
from schur2.means import Tail, schur_ostrowski_sign, truncated_mean
from schur2.sets import (check_b, contains_rows, cube, hat_b, p_ball,
                         parse_set, pq_ball)
from schur2.solvers import TestDesign, critical_value, normalize_direction
from schur2.verify import (EmpiricalDesign, check_rotation_monotonicity,
                           check_schur2_monotonicity)


@pytest.mark.parametrize("call, message", [
    (lambda: p_ball(2, 2.0, 0.0), "eps > 0"),
    (lambda: cube(2, -1.0), "a >= 0"),
    (lambda: contains_rows(p_ball(2, 2.0, 1.0), np.zeros((4, 3))),
     "dimension mismatch"),
    (lambda: parse_set("not a set", 2), "cannot parse"),
    (lambda: truncated_mean([1.0, 2.0], 3, Tail.SMALLEST, 2.0),
     "ell must be in 1..2"),
    (lambda: schur_ostrowski_sign(3.0, 1.0, [1.0, 0.0], 0, 1),
     "strictly positive"),
    (lambda: schur_ostrowski_sign(1.0, 1.0, [1.0, 2.0], 0, 1), "p > q"),
    (lambda: majorize_compare([1.0, 2.0], [1.0, 1.0, 1.0]),
     "dimension mismatch"),
    (lambda: normalize_direction([0.0, 0.0]), "nonzero"),
    (lambda: TestDesign(3, 1.0, 0.05, 0.9, (1.0, 1.0)),
     "direction length must equal k"),
    (lambda: critical_value(2, 1.0, 0.0), r"alpha must lie in \(0, 1\)"),
    (lambda: critical_value(2, 1.0, 1.5), r"alpha must lie in \(0, 1\)"),
    (lambda: are_limit_trend(2, 1.0, (1.0, 1.0), [0.05, 0.01], [0.9]),
     "equal length"),
    (lambda: check_schur2_monotonicity(hat_b(2, 1.5, 1.0, 0.5), []),
     "NEITHER_KNOWN"),
    (lambda: check_rotation_monotonicity(cube(2, 1.0), 2.0, [0.0, 1.0]),
     r"\[0, pi/4\]"),
    (lambda: check_rotation_monotonicity(cube(2, 1.0), 2.0, [-0.1, 0.5]),
     r"\[0, pi/4\]"),
    # a NaN grid point lies nowhere in the range, though it is below no
    # end of it
    (lambda: check_rotation_monotonicity(cube(2, 1.0), 2.0,
                                         [0.0, math.nan, 0.5]),
     r"\[0, pi/4\]"),
    (lambda: EmpiricalDesign(n=10, k=2, p=2.0, c=1.0, population="cauchy"),
     "population"),
    (lambda: EmpiricalDesign(n=10, k=2, p=2.0, c=1.0, theta=(1.0, 2.0, 3.0)),
     "theta length must equal k"),
    (lambda: rotate2([1.0, 2.0, 3.0], 0.1), "k = 2"),
    (lambda: pball_radius_cdf(1, 2.0, [0.0], 3.0), "k >= 2"),
    (lambda: pball_radius_cdf(2, 0.0, [0.0, 0.0], 3.0), "finite p > 0"),
    (lambda: pball_radius_cdf(2, math.inf, [0.0, 0.0], 3.0), "finite p > 0"),
    # checked as spelled, before a set takes its stored form
    (lambda: pq_ball(2, math.inf, math.nan, 1.0), "must not be NaN"),
    (lambda: hat_b(2, math.inf, 0.0, 1.0), "1 <= p < inf"),
    (lambda: hat_b(2, 0.5, 0.0, 1.0), "1 <= p < inf"),
    (lambda: check_b(2, math.inf, 0.0, 1.0), "1 <= p < inf"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
