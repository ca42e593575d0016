"""Unit and property tests for the DBM library.

The property tests compare symbolic zone operations against concrete
clock valuations: for random points and random operations, membership in
the transformed zone must agree with the transformed point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import (
    DBM,
    INF,
    bound_add,
    bound_negate,
    bound_str,
    is_strict,
    le,
    lt,
)


class TestBounds:
    def test_ordering(self):
        assert lt(5) < le(5) < lt(6)
        assert le(-1) < lt(0) < le(0)

    def test_add(self):
        assert bound_add(le(3), le(4)) == le(7)
        assert bound_add(lt(3), le(4)) == lt(7)
        assert bound_add(le(3), lt(4)) == lt(7)
        assert bound_add(lt(3), lt(4)) == lt(7)
        assert bound_add(le(3), INF) == INF
        assert bound_add(INF, lt(1)) == INF

    def test_negate(self):
        assert bound_negate(le(5)) == lt(-5)
        assert bound_negate(lt(5)) == le(-5)
        with pytest.raises(ValueError):
            bound_negate(INF)

    def test_strictness(self):
        assert is_strict(lt(2))
        assert not is_strict(le(2))

    def test_str(self):
        assert bound_str(le(3)) == "<=3"
        assert bound_str(lt(-1)) == "<-1"
        assert bound_str(INF) == "<inf"


class TestDBMBasics:
    def test_zero_zone_contains_origin_only(self):
        z = DBM.zero(3)
        assert z.contains_point((0, 0))
        assert not z.contains_point((1, 0))
        assert not z.contains_point((0, 0.5))

    def test_universal_contains_everything_nonnegative(self):
        z = DBM.universal(3)
        assert z.contains_point((0, 0))
        assert z.contains_point((100, 3.5))

    def test_up_from_zero_is_diagonal(self):
        z = DBM.zero(3).up()
        assert z.contains_point((2, 2))
        assert z.contains_point((7.5, 7.5))
        assert not z.contains_point((2, 3))

    def test_constrain(self):
        # x1 <= 5 after delay from zero.
        z = DBM.zero(2).up().constrain(1, 0, le(5))
        assert z.contains_point((5,))
        assert not z.contains_point((5.1,))

    def test_constrain_to_empty(self):
        z = DBM.zero(2).up().constrain(1, 0, le(5)).constrain(0, 1, le(-6))
        assert z.is_empty()

    def test_strict_constraint(self):
        z = DBM.zero(2).up().constrain(1, 0, lt(5))
        assert z.contains_point((4.9,))
        assert not z.contains_point((5,))

    def test_reset(self):
        z = DBM.zero(3).up().constrain(1, 0, le(10)).reset(1, 0)
        assert z.contains_point((0, 4))
        assert not z.contains_point((1, 4))

    def test_reset_to_value(self):
        z = DBM.zero(2).up().reset(1, 3)
        assert z.contains_point((3,))
        assert not z.contains_point((2,))

    def test_reset_preserves_differences_with_other_clocks(self):
        # Delay, then reset x1: x2 keeps its value range but x1 = 0.
        z = DBM.zero(3).up().constrain(2, 0, le(8)).reset(1)
        assert z.contains_point((0, 8))
        assert z.contains_point((0, 2.5))
        assert not z.contains_point((0, 9))

    def test_reset_bad_clock(self):
        from repro.core import ModelError

        with pytest.raises(ModelError):
            DBM.zero(2).reset(0)
        with pytest.raises(ModelError):
            DBM.zero(2).reset(5)

    def test_free(self):
        z = DBM.zero(3).free(1)
        assert z.contains_point((77, 0))
        assert not z.contains_point((77, 1))

    def test_down(self):
        # x1 = 5 exactly; past is 0 <= x1 <= 5.
        z = DBM.zero(2).up().constrain(1, 0, le(5)).constrain(0, 1, le(-5))
        z = z.down()
        assert z.contains_point((0,))
        assert z.contains_point((3,))
        assert z.contains_point((5,))
        assert not z.contains_point((5.5,))

    def test_down_preserves_differences(self):
        # x1 = 5, x2 = 3 -> past keeps x1 - x2 = 2, so x1 >= 2.
        z = DBM.universal(3)
        z.constrain(1, 0, le(5)).constrain(0, 1, le(-5))
        z.constrain(2, 0, le(3)).constrain(0, 2, le(-3))
        z = z.down()
        assert z.contains_point((2, 0))
        assert z.contains_point((5, 3))
        assert not z.contains_point((1.5, 0))

    def test_intersect(self):
        a = DBM.zero(2).up().constrain(1, 0, le(10))
        b = DBM.zero(2).up().constrain(0, 1, le(-5))
        a.intersect(b)
        assert a.contains_point((7,))
        assert not a.contains_point((4,))
        assert not a.contains_point((11,))

    def test_intersect_disjoint_is_empty(self):
        a = DBM.zero(2).up().constrain(1, 0, lt(5))
        b = DBM.zero(2).up().constrain(0, 1, lt(-5))
        assert a.intersect(b).is_empty()

    def test_includes(self):
        big = DBM.zero(2).up()
        small = DBM.zero(2).up().constrain(1, 0, le(5))
        assert big.includes(small)
        assert not small.includes(big)
        assert big.includes(big)

    def test_eq_and_hash(self):
        a = DBM.zero(2).up().constrain(1, 0, le(5))
        b = DBM.zero(2).up().constrain(1, 0, le(5))
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_empty_zones_equal(self):
        a = DBM.zero(2).constrain(1, 0, lt(0))
        b = DBM.zero(2).up().constrain(1, 0, le(3)).constrain(0, 1, le(-4))
        assert a.is_empty() and b.is_empty()
        assert a == b

    def test_bounds_queries(self):
        z = DBM.zero(2).up().constrain(1, 0, le(9)).constrain(0, 1, le(-2))
        assert z.upper_bound(1) == le(9)
        assert z.lower_bound(1) == 2

    def test_extrapolation_widens(self):
        z = DBM.zero(2).up().constrain(1, 0, le(50)).constrain(0, 1, le(-50))
        z.extrapolate([0, 10])
        # Everything above the max constant 10 is indistinguishable.
        assert z.contains_point((11,))
        assert z.contains_point((1000,))
        assert not z.contains_point((5,))

    def test_extrapolation_preserves_small_zone(self):
        z = DBM.zero(2).up().constrain(1, 0, le(5))
        before = z.copy()
        z.extrapolate([0, 10])
        assert z == before

    def test_too_small(self):
        from repro.core import ModelError

        with pytest.raises(ModelError):
            DBM(0)

    def test_repr_smoke(self):
        assert "DBM" in repr(DBM.zero(2))
        assert "empty" in repr(DBM.zero(2).constrain(1, 0, lt(0)))


# --- property-based tests ----------------------------------------------------

clock_values = st.lists(
    st.integers(min_value=0, max_value=20), min_size=2, max_size=2)


def _random_zone(constraints):
    """Build a 3-clock zone from a list of (i, j, c, strict) tuples."""
    z = DBM.zero(3).up()
    for i, j, c, strict in constraints:
        z.constrain(i, j, lt(c) if strict else le(c))
    return z


constraint = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-15, max_value=15),
    st.booleans(),
).filter(lambda t: t[0] != t[1])

zones = st.lists(constraint, min_size=0, max_size=6).map(_random_zone)


@settings(max_examples=200, deadline=None)
@given(zones, st.integers(0, 20), st.integers(0, 20))
def test_membership_consistent_with_inclusion(z, a, b):
    """If a point is in z, z includes the point zone; and vice versa."""
    point = DBM.universal(3)
    point.constrain(1, 0, le(a)).constrain(0, 1, le(-a))
    point.constrain(2, 0, le(b)).constrain(0, 2, le(-b))
    assert z.contains_point((a, b)) == z.includes(point)


@settings(max_examples=200, deadline=None)
@given(zones, st.integers(0, 20), st.integers(0, 20),
       st.integers(0, 10))
def test_up_contains_all_delays(z, a, b, d):
    if z.contains_point((a, b)):
        assert z.copy().up().contains_point((a + d, b + d))


@settings(max_examples=200, deadline=None)
@given(zones, st.integers(0, 20), st.integers(0, 20))
def test_reset_moves_points(z, a, b):
    if z.contains_point((a, b)):
        assert z.copy().reset(1, 0).contains_point((0, b))
        assert z.copy().reset(2, 4).contains_point((a, 4))


@settings(max_examples=200, deadline=None)
@given(zones, zones, st.integers(0, 20), st.integers(0, 20))
def test_intersection_is_conjunction(z1, z2, a, b):
    both = z1.copy().intersect(z2)
    expected = z1.contains_point((a, b)) and z2.contains_point((a, b))
    assert both.contains_point((a, b)) == expected


@settings(max_examples=200, deadline=None)
@given(zones, st.integers(0, 20), st.integers(0, 20))
def test_down_contains_past(z, a, b):
    if z.contains_point((a, b)):
        past = z.copy().down()
        d = min(a, b)
        assert past.contains_point((a - d, b - d))


@settings(max_examples=300, deadline=None)
@given(zones, zones)
def test_past_includes_matches_the_built_past(z1, z2):
    """The matrix test equals inclusion in the materialised down()."""
    assert z1.past_includes(z2) == z1.copy().down().includes(z2)


@settings(max_examples=150, deadline=None)
@given(zones)
def test_close_is_idempotent(z):
    once = z.copy().close()
    twice = once.copy().close()
    assert once == twice


@settings(max_examples=150, deadline=None)
@given(zones, st.integers(0, 30), st.integers(0, 30))
def test_extrapolation_only_grows(z, a, b):
    wide = z.copy().extrapolate([0, 8, 8])
    if z.contains_point((a, b)):
        assert wide.contains_point((a, b))


class TestConstrainValidation:
    """constrain() must reject indices that would corrupt the matrix."""

    def test_diagonal_constraint_rejected(self):
        from repro.core.errors import ModelError

        z = DBM.universal(3)
        with pytest.raises(ModelError):
            z.constrain(1, 1, le(5))
        # The zone is untouched (in particular, still canonical and
        # non-empty: the seed silently wrote to the diagonal here).
        assert z == DBM.universal(3)

    def test_out_of_range_indices_rejected(self):
        from repro.core.errors import ModelError

        z = DBM.universal(3)
        for i, j in [(3, 0), (0, 3), (-1, 0), (0, -1), (7, 7)]:
            with pytest.raises(ModelError):
                z.constrain(i, j, le(5))
        assert z == DBM.universal(3)
