import json
import math

import numpy as np
import pytest

from equipot import (
    IntervalSet,
    SetSpecError,
    cantor_set,
    check_interval_condition,
    from_spec,
    interval_sets,
    is_subset,
    normalize,
    outer_approx,
    widen,
)
from conftest import random_interval_set


class TestNormalize:
    def test_identity(self):
        assert normalize([(0, 1)]).intervals == ((0.0, 1.0),)

    def test_touching_merge(self):
        assert normalize([(0.5, 1), (-1, 0.5)]).intervals == ((-1.0, 1.0),)

    def test_overlap_merge(self):
        got = normalize([(0, 0.2), (0.1, 0.5), (2, 3)])
        assert got.intervals == ((0.0, 0.5), (2.0, 3.0))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = [(a, a + abs(b)) for a, b in rng.uniform(-3, 3, (6, 2))]
            once = normalize(raw)
            assert normalize(once.intervals) == once

    def test_degenerate_point_kept(self):
        assert normalize([(1, 1), (2, 3)]).intervals == ((1.0, 1.0), (2.0, 3.0))

    @pytest.mark.parametrize("bad", [[], [(1, 0)], [(0, math.inf)], [(math.nan, 1)]])
    def test_rejects(self, bad):
        with pytest.raises(SetSpecError):
            normalize(bad)

    def test_constructor_rejects_touching(self):
        with pytest.raises(SetSpecError):
            IntervalSet(((0.0, 1.0), (1.0, 2.0)))


class TestIntervalCondition:
    def test_single_interval_right_end(self):
        ctx = check_interval_condition(IntervalSet(((-1.0, 1.0),)), 1.0)
        assert ctx.rho == 1.0

    def test_inner_right_end(self):
        K = IntervalSet(((-1.0, -0.5), (0.5, 1.0)))
        ctx = check_interval_condition(K, -0.5)
        assert ctx.rho == 0.25

    def test_not_an_endpoint(self):
        with pytest.raises(SetSpecError):
            check_interval_condition(IntervalSet(((-1.0, 1.0),)), 0.0)
        with pytest.raises(SetSpecError, match="degenerate"):
            check_interval_condition(IntervalSet(((0.0, 0.0), (1.0, 2.0))), 0.0)

    def test_rho_override_checked(self):
        K = IntervalSet(((-1.0, 1.0),))
        assert check_interval_condition(K, 1.0, rho=0.5).rho == 0.5
        with pytest.raises(SetSpecError):
            check_interval_condition(K, 1.0, rho=1.5)
        for rho in (0.0, -0.5):
            with pytest.raises(SetSpecError, match="rho must be positive"):
                check_interval_condition(K, 1.0, rho=rho)

    def test_maximality_both_clauses(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            K = random_interval_set(rng)
            a = K.intervals[int(rng.integers(K.m))][1]
            ctx = check_interval_condition(K, a)
            rho = ctx.rho
            # clause 1: [a - 2 rho, a] inside K
            assert K.contains(a - 2 * rho + 1e-12)
            j = ctx.component
            assert K.intervals[j][1] == a
            assert K.intervals[j][0] <= a - 2 * rho + 1e-12
            # clause 2: (a, a + 2 rho) misses K
            assert not any(l < a + 2 * rho - 1e-12 and r > a for l, r in K.intervals[j + 1:])
            # maximality: one of the clauses fails for any larger rho
            bigger = rho * (1 + 1e-9) + 1e-12
            clause1 = K.intervals[j][0] <= a - 2 * bigger
            clause2 = j + 1 == K.m or K.intervals[j + 1][0] >= a + 2 * bigger
            assert not (clause1 and clause2)


class TestOuterApprox:
    def test_nothing_to_fill(self):
        K = IntervalSet(((-1.0, -0.5), (0.5, 1.0)))
        ctx = check_interval_condition(K, 1.0)
        assert outer_approx(K, ctx, 3) == K

    def test_cantor_level2_m2(self):
        K = cantor_set(2, 1 / 3)
        ctx = check_interval_condition(K, 1.0)
        got = outer_approx(K, ctx, 2)
        assert np.allclose(got.intervals, ((0.0, 1 / 3), (2 / 3, 1.0)), atol=1e-15)

    def test_cantor_level2_m4_unchanged(self):
        K = cantor_set(2, 1 / 3)
        ctx = check_interval_condition(K, 1.0)
        assert outer_approx(K, ctx, 4) == K

    def test_free_gap_always_kept(self):
        # a is the right end of the FIRST component; its small free gap must
        # survive even though larger gaps exist
        K = IntervalSet(((0.0, 1.0), (1.1, 1.2), (5.0, 6.0)))
        ctx = check_interval_condition(K, 1.0)
        got = outer_approx(K, ctx, 2)
        assert got.intervals == ((0.0, 1.0), (1.1, 6.0))

    def test_monotone_in_m(self):
        K = cantor_set(5, 1 / 3)
        ctx = check_interval_condition(K, 1.0)
        prev = None
        for m in (2, 3, 5, 9, 17, 32):
            cur = outer_approx(K, ctx, m)
            assert is_subset(K, cur)
            if prev is not None:
                assert is_subset(cur, prev)
            prev = cur

    def test_m_too_small(self):
        K = cantor_set(2, 1 / 3)
        ctx = check_interval_condition(K, 1.0)
        with pytest.raises(SetSpecError):
            outer_approx(K, ctx, 1)


class TestCantor:
    def test_level0(self):
        assert cantor_set(0).intervals == ((0.0, 1.0),)

    def test_level1(self):
        got = cantor_set(1, 1 / 3).intervals
        assert np.allclose(got, ((0.0, 1 / 3), (2 / 3, 1.0)), atol=1e-15)

    def test_level2(self):
        got = cantor_set(2, 1 / 3)
        want = ((0.0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1.0))
        assert np.allclose(got.intervals, want, atol=1e-15)

    @pytest.mark.parametrize("level,ratio", [(3, 0.25), (5, 1 / 3), (7, 0.4)])
    def test_length_and_gap_count(self, level, ratio):
        K = cantor_set(level, ratio)
        assert K.m == 2**level
        assert K.total_length() == pytest.approx((2 * ratio) ** level, rel=1e-14)
        assert len(K.gaps()) == 2**level - 1

    @pytest.mark.parametrize("bad", [(-1, 1 / 3), (3, 0.0), (3, 0.5), (3, 0.7), (13, 1 / 3)])
    def test_rejects(self, bad):
        with pytest.raises(SetSpecError):
            cantor_set(*bad)

    def test_level_cap_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(interval_sets, "CANTOR_LEVEL_CAP", 3)
        assert cantor_set(3, 1 / 3).m == 8
        with pytest.raises(SetSpecError, match="cap 3"):
            cantor_set(4, 1 / 3)
        with pytest.raises(SetSpecError, match="cap 3"):
            from_spec({"cantor": {"level": 4}})


class TestSubsetAndWiden:
    def test_simple(self):
        assert is_subset(IntervalSet(((0.0, 1.0),)), IntervalSet(((-1.0, 2.0),)))
        assert not is_subset(
            IntervalSet(((0.0, 1.0),)), IntervalSet(((0.0, 0.5), (0.6, 1.0)))
        )

    def test_outer_always_contains(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            K = random_interval_set(rng)
            a = K.max
            ctx = check_interval_condition(K, a)
            for m in (2, 3, 5):
                assert is_subset(K, outer_approx(K, ctx, m))

    def test_widen_only_degenerate(self):
        K = IntervalSet(((0.0, 0.0), (1.0, 2.0)))
        got = widen(K, 0.1)
        assert got.intervals == ((-0.05, 0.05), (1.0, 2.0))

    def test_widen_rejects(self):
        with pytest.raises(SetSpecError):
            widen(IntervalSet(((0.0, 1.0),)), 0.0)


class TestJson:
    def test_roundtrip_bit_exact(self):
        K = IntervalSet(((-1.2345678901234567, -0.1), (0.1, 5.000000000000001)))
        K2 = from_spec(K.to_json())
        assert K2 == K

    def test_cantor_spec(self):
        K = from_spec({"cantor": {"level": 2, "ratio": 1 / 3}})
        assert K == cantor_set(2, 1 / 3)

    def test_exact_decimal_parse(self):
        K = from_spec('{"intervals": [[0.1, 0.30000000000000004]]}')
        assert K.intervals == ((0.1, 0.30000000000000004),)

    @pytest.mark.parametrize("bad", ["not json", "{}", '{"intervals": [[1]]}',
                                     '{"cantor": {}}', "[[-1, 1]]"])
    def test_rejects(self, bad):
        with pytest.raises(SetSpecError):
            from_spec(bad)
