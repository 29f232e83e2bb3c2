"""Property tests: both computation routes agree on generated systems.

Each drawn system has a fiber map v_i + 0.1*v_i*r_i(x, v), a symmetric
connection and a force, all built from helpers.random_source, and no
closed-form inverse, so the momentum route runs through Newton and
implicit differentiation. A change that lets one route borrow the
other's formulas, or that breaks one of them, shows up as a
disagreement on some draw, and the flip-beta-term mutation must keep
failing the beta cross check wherever it changes beta at all.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from normality_lab.calculus import relative_deviation
from normality_lab.errors import (DegeneratePoint, NonConvergence,
                                  SingularMetric)
from normality_lab.normality import CROSS_FIELDS, cross_check_all
from normality_lab.phase import PhasePoint
from normality_lab.system import SystemDef

CROSS_TOLERANCE = 1e-6
# the mutation counts as visible once it moves the velocity-route beta
# by this much, far above the route disagreement allowed above
VISIBLE_SHIFT = 1e-4

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                             database=None)


@st.composite
def systems_at_points(draw):
    """(SystemDef, velocity point) for n = 2..4, from a drawn seed."""
    n = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    legendre = helpers.parse_all(
        [f"v{i + 1} + 0.1*v{i + 1}*({helpers.random_source(rng, n, depth=2)})"
         for i in range(n)], n)
    force = helpers.parse_all(
        [f"0.3*({helpers.random_source(rng, n, depth=2)})" for _ in range(n)], n)
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    source = helpers.random_source(rng, n, depth=1)
                    entries[(k, i, j)] = f"0.2*({source})"
    connection = helpers.make_connection(n, entries)
    sysdef = SystemDef(n, legendre, force=force, connection=connection)
    x, v = helpers.random_box_point(rng, n)
    return sysdef, PhasePoint.velocity(x, v)


def _cross(sysdef, pt, mutate=None):
    try:
        return cross_check_all(sysdef, pt, mutate=mutate)
    except (DegeneratePoint, SingularMetric, NonConvergence):
        assume(False)


@PROPERTY_SETTINGS
@given(systems_at_points())
def test_routes_agree_on_every_field(case):
    sysdef, pt = case
    out = _cross(sysdef, pt)
    for field in CROSS_FIELDS:
        assert out[field].deviation < CROSS_TOLERANCE, field


@PROPERTY_SETTINGS
@given(systems_at_points())
def test_flipped_beta_term_fails_beta_when_it_matters(case):
    sysdef, pt = case
    clean = _cross(sysdef, pt)
    mutated = _cross(sysdef, pt, mutate="flip-beta-term")
    shift = relative_deviation(clean["beta"].velocity,
                               mutated["beta"].velocity)
    if shift > VISIBLE_SHIFT:
        assert mutated["beta"].deviation > CROSS_TOLERANCE
    # the mutation touches the velocity route's beta and nothing else
    for field in CROSS_FIELDS:
        if field not in ("beta", "eta"):
            assert np.array_equal(clean[field].velocity,
                                  mutated[field].velocity), field
