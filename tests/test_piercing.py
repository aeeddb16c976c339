import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coverpierce import piercing
from coverpierce.core import (
    Cross,
    InstanceError,
    Interval,
    Permutation,
    PiercingInstance,
    QueryCounter,
    loads_instance,
)
from coverpierce.piercing import (
    MinimalityReport,
    build_envelopes,
    check_minimality,
    gen_random_piercing,
    gen_staircase_literal,
    gen_staircase_minimal,
    oracle_grid_points,
    oracle_piercing,
    solve_piercing,
)


def cross(h, v):
    return Cross(Interval(*h), Interval(*v))


def inst(xdom, ydom, crosses):
    return PiercingInstance(Interval(*xdom), Interval(*ydom),
                            [cross(h, v) for h, v in crosses])


DIAG3 = inst((0, 2), (0, 2), [((k, k), (k, k)) for k in range(3)])
QUAD4 = inst((0, 3), (0, 3), [
    ((0, 1), (0, 1)), ((2, 3), (2, 3)), ((0, 1), (2, 3)), ((2, 3), (0, 1))])


def witness_sound(instance, verdict):
    if not verdict.pierceable:
        return verdict.witness is None
    x, y = verdict.witness
    return (instance.xdomain.contains(x) and instance.ydomain.contains(y)
            and all(cr.contains(x, y) for cr in instance.crosses))


piercing_instances = st.integers(min_value=1, max_value=8).flatmap(
    lambda span: st.lists(
        st.tuples(
            st.tuples(st.integers(0, span), st.integers(0, span)).map(sorted),
            st.tuples(st.integers(0, span), st.integers(0, span)).map(sorted),
        ),
        max_size=8,
    ).map(lambda cs: inst((0, span), (0, span), cs))
)


class TestEnvelopes:
    def test_staircase_six_values_at_zero(self):
        env = build_envelopes(gen_staircase_minimal(6))
        assert env.f_nw.value_at(0) == 1   # min d over a > 0: {8, 1, 3}
        assert env.g_sw.value_at(0) == 2   # max c over a > 0: {2, 0, 0}

    def test_empty_instance_is_all_sentinels(self):
        env = build_envelopes(inst((0, 3), (0, 3), []))
        for fn, sentinel in [(env.f_nw, math.inf), (env.f_ne, math.inf),
                             (env.g_sw, -math.inf), (env.g_se, -math.inf)]:
            assert fn.breakpoints == ()
            assert fn.values == (sentinel,)

    @settings(max_examples=150, deadline=None)
    @given(piercing_instances)
    def test_pointwise_definitions_and_monotonicity(self, instance):
        env = build_envelopes(instance)
        a = [c.h.lo for c in instance.crosses]
        b = [c.h.hi for c in instance.crosses]
        c_ = [c.v.lo for c in instance.crosses]
        d = [c.v.hi for c in instance.crosses]
        for x in range(instance.xdomain.lo, instance.xdomain.hi + 1):
            nw = [d[i] for i in range(len(a)) if a[i] > x]
            ne = [d[i] for i in range(len(b)) if b[i] < x]
            sw = [c_[i] for i in range(len(a)) if a[i] > x]
            se = [c_[i] for i in range(len(b)) if b[i] < x]
            assert env.f_nw.value_at(x) == (min(nw) if nw else math.inf)
            assert env.f_ne.value_at(x) == (min(ne) if ne else math.inf)
            assert env.g_sw.value_at(x) == (max(sw) if sw else -math.inf)
            assert env.g_se.value_at(x) == (max(se) if se else -math.inf)
        assert list(env.f_nw.values) == sorted(env.f_nw.values)
        assert list(env.g_se.values) == sorted(env.g_se.values)
        assert list(env.f_ne.values) == sorted(env.f_ne.values, reverse=True)
        assert list(env.g_sw.values) == sorted(env.g_sw.values, reverse=True)

    def test_piece_count_bound(self):
        rng = np.random.RandomState(3)
        instance = gen_random_piercing(40, rng)
        env = build_envelopes(instance)
        for fn in (env.f_nw, env.f_ne, env.g_sw, env.g_se):
            assert len(fn.values) <= instance.n + 1


class TestSolvePiercing:
    def test_single_cross_always_pierceable(self):
        v = solve_piercing(inst((0, 9), (0, 9), [((3, 5), (2, 4))]))
        assert v.pierceable
        x, y = v.witness
        assert Interval(3, 5).contains(x) or Interval(2, 4).contains(y)

    def test_diagonal_three_not_pierceable(self):
        assert not solve_piercing(DIAG3).pierceable
        assert not oracle_piercing(DIAG3).pierceable

    def test_two_crosses_always_pierceable(self):
        rng = np.random.RandomState(17)
        for _ in range(300):
            instance = gen_random_piercing(2, rng)
            assert solve_piercing(instance, QueryCounter()).pierceable

    def test_quad_four_not_pierceable_but_every_triple_is(self):
        assert not solve_piercing(QUAD4).pierceable
        for i in range(4):
            sub = PiercingInstance(QUAD4.xdomain, QUAD4.ydomain,
                                   QUAD4.crosses[:i] + QUAD4.crosses[i + 1:])
            assert solve_piercing(sub, QueryCounter()).pierceable

    def test_empty_instance_vacuously_pierceable(self):
        v = solve_piercing(inst((0, 4), (0, 4), []))
        assert v.pierceable
        assert v.witness == (0, 0)

    @settings(max_examples=300, deadline=None)
    @given(piercing_instances)
    def test_agrees_with_oracle_and_witnesses_sound(self, instance):
        sv = solve_piercing(instance, QueryCounter())
        ov = oracle_piercing(instance)
        assert sv.pierceable == ov.pierceable
        assert witness_sound(instance, sv)
        assert witness_sound(instance, ov)

    def test_exhaustive_tiny(self):
        span = 2
        ivs = [(l, h) for l in range(span + 1) for h in range(l, span + 1)]
        crosses = [(h, v) for h in ivs for v in ivs]
        for n in (1, 2):
            for combo in itertools.combinations(crosses, n):
                instance = inst((0, span), (0, span), combo)
                assert (solve_piercing(instance, QueryCounter()).pierceable
                        == oracle_piercing(instance).pierceable), combo

    def test_witness_is_leftmost_feasible_x(self):
        v = solve_piercing(inst((0, 9), (0, 9), [((4, 6), (7, 9))]))
        assert v.pierceable
        assert v.witness[0] == 0  # x=0 already feasible via the y-arm

    def test_float_coordinates_rejected_not_misjudged(self):
        # with float bounds the sweep's b + 1 breakpoints skip feasible x, and
        # solver and oracle both once returned the unsound witness (0, 0)
        with pytest.raises(InstanceError):
            inst((0.0, 3.0), (0.0, 3.0), [((0.5, 1), (2, 3)), ((1.5, 3), (0, 0.5))])
        ranked = loads_instance(json.dumps({
            "problem": "piercing", "xdomain": [0.0, 3.0], "ydomain": [0.0, 3.0],
            "crosses": [{"h": [0.5, 1], "v": [2, 3]}, {"h": [1.5, 3], "v": [0, 0.5]}],
        }))
        sv = solve_piercing(ranked, QueryCounter())
        ov = oracle_piercing(ranked)
        assert sv.pierceable and ov.pierceable
        assert witness_sound(ranked, sv) and witness_sound(ranked, ov)


class TestStaircaseMinimal:
    def test_fixed_three_vector(self):
        assert gen_staircase_minimal(3).crosses == DIAG3.crosses

    def test_fixed_four_vector(self):
        got = gen_staircase_minimal(4)
        assert got.xdomain == Interval(0, 3)
        assert got.crosses == QUAD4.crosses

    def test_fixed_six_vector(self):
        got = gen_staircase_minimal(6)
        expected = inst((0, 8), (0, 8), [
            ((2, 8), (2, 8)), ((3, 8), (0, 1)), ((0, 1), (4, 8)),
            ((6, 8), (0, 3)), ((0, 4), (0, 5)), ((0, 5), (6, 8))])
        assert got == expected

    def test_minimal_for_small_sizes(self):
        for n in range(3, 10):
            report = check_minimality(gen_staircase_minimal(n))
            assert not report.full_family_pierceable
            assert all(report.each_deletion_pierceable)
            assert report.is_minimal_nonpierceable

    def test_grid_oracle_finds_small_sizes_minimal(self):
        # evidence independent of the solver that the generator's self-check runs
        for n in range(3, 15):
            instance = gen_staircase_minimal(n, verify=False)
            crosses = instance.crosses
            assert not oracle_piercing(instance).pierceable, n
            for i in range(n):
                sub = PiercingInstance(instance.xdomain, instance.ydomain,
                                       crosses[:i] + crosses[i + 1:])
                assert oracle_piercing(sub).pierceable, (n, i)

    def test_large_size_self_verifies_via_solver(self):
        instance = gen_staircase_minimal(25)
        assert not solve_piercing(instance, QueryCounter()).pierceable

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_staircase_minimal(2)


class TestStaircaseLiteral:
    def test_n8_identity_x_ranks(self):
        instance = gen_staircase_literal(8)
        hs = [(c.h.lo, c.h.hi) for c in instance.crosses]
        assert hs == [(0, 0), (2, 7), (0, 1), (4, 7), (0, 3), (6, 7), (0, 5), (7, 7)]
        assert instance.xdomain == Interval(0, 7)

    def test_n8_identity_y_ranks(self):
        instance = gen_staircase_literal(8)
        vs = [(c.v.lo, c.v.hi) for c in instance.crosses]
        assert vs == [(1, 8), (0, 0), (3, 8), (0, 2), (5, 8), (0, 4), (7, 8), (0, 6)]

    def test_n9_identity_tail_ranks(self):
        instance = gen_staircase_literal(9)
        assert instance.crosses[8].v == Interval(8, 8)  # last odd cross hub at the top
        assert instance.crosses[6].v.lo == 7
        assert instance.ydomain == Interval(0, 8)
        assert instance.xdomain == Interval(0, 9)

    def test_boundary_anomaly_grid_points(self):
        # closed-interval semantics leave the corner points piercing; frozen
        # from the grid oracle
        assert oracle_grid_points(gen_staircase_literal(8)) == [(0, 0), (7, 7), (7, 8)]

    def test_solver_agrees_instance_is_pierceable(self):
        for n in (8, 9):
            instance = gen_staircase_literal(n)
            assert solve_piercing(instance, QueryCounter()).pierceable
            assert oracle_piercing(instance).pierceable

    def test_rejects_bad_sizes_and_permutations(self):
        with pytest.raises(ValueError):
            gen_staircase_literal(7)
        with pytest.raises(ValueError):
            gen_staircase_literal(8, Permutation((2, 1, 3, 4, 5, 6, 7, 8)))

    def test_parity_preserving_permutation_accepted(self):
        perm = Permutation((3, 2, 1, 4, 5, 6, 7, 8))
        instance = gen_staircase_literal(8, perm)
        assert oracle_piercing(instance).pierceable


def minimality_by_solves(instance):
    """Reference: the grid oracle on the full family and on every
    leave-one-out subfamily, sharing no code with the sweep."""
    crosses = instance.crosses
    full = oracle_piercing(instance).pierceable
    blocking = tuple(
        i for i in range(instance.n)
        if not oracle_piercing(PiercingInstance(instance.xdomain, instance.ydomain,
                                                crosses[:i] + crosses[i + 1:])).pierceable)
    return MinimalityReport(full, instance.n, blocking)


def same_verdict_as_oracle(instance):
    sv, ov = solve_piercing(instance, QueryCounter()), oracle_piercing(instance)
    return (sv.pierceable, sv.witness) == (ov.pierceable, ov.witness)


def arms(span):
    # may be a point, and may poke out of [0, span] by up to two ranks
    return st.tuples(st.integers(-2, span + 2), st.integers(-2, span + 2)).map(sorted)


@st.composite
def random_families(draw):
    span, yspan = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    pool = draw(st.lists(st.tuples(arms(span), arms(yspan)), max_size=10))
    # repeated crosses tie for the best two of c or d
    repeats = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    crosses = draw(st.permutations(pool + repeats))
    return inst((0, span), (0, yspan), crosses)


@st.composite
def perturbed_staircases(draw):
    base = gen_staircase_minimal(draw(st.integers(3, 12)), verify=False)
    crosses = list(draw(st.permutations(base.crosses)))
    span = base.xdomain.hi
    for k in draw(st.lists(st.integers(0, len(crosses) - 1), max_size=2)):
        crosses[k] = cross(draw(arms(span)), draw(arms(span)))
    if draw(st.booleans()):
        crosses.append(draw(st.sampled_from(crosses)))
    return PiercingInstance(base.xdomain, base.ydomain, crosses)


class TestCheckMinimality:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(random_families(), perturbed_staircases()))
    @example(inst((0, 3), (0, 3), []))
    @example(inst((0, 3), (0, 3), [((1, 2), (1, 2))]))
    @example(inst((0, 3), (0, 3), [((5, 6), (-2, -1))]))  # N=1, no piercing point
    @example(PiercingInstance(QUAD4.xdomain, QUAD4.ydomain, QUAD4.crosses * 2))
    def test_equals_leave_one_out_solves(self, instance):
        assert check_minimality(instance) == minimality_by_solves(instance)
        # the sweep's witness is the oracle's first piercing grid point
        assert same_verdict_as_oracle(instance)

    def test_equals_leave_one_out_solves_on_staircases(self):
        rng = random.Random(6)
        for n in [*range(3, 41), 128, 300]:
            base = gen_staircase_minimal(n, verify=False)
            crosses = list(base.crosses)
            rng.shuffle(crosses)
            shuffled = PiercingInstance(base.xdomain, base.ydomain, crosses)
            assert check_minimality(shuffled).is_minimal_nonpierceable, n
            if n <= 40:
                assert check_minimality(shuffled) == minimality_by_solves(shuffled), n
                lo, hi = sorted(rng.randint(0, n + 2) for _ in range(2))
                crosses[rng.randrange(n)] = cross((lo, hi), (lo, hi))
                bent = PiercingInstance(base.xdomain, base.ydomain, crosses)
                assert check_minimality(bent) == minimality_by_solves(bent), n
                assert same_verdict_as_oracle(bent), n

    def test_one_counter_growing_like_n_log_n(self, monkeypatch):
        # the counter comes from the module's QueryCounter, which perfbench swaps
        made = []

        def tally():
            made.append(QueryCounter())
            return made[-1]

        monkeypatch.setattr(piercing, "QueryCounter", tally)
        counts = []
        for n in (512, 1024, 2048):
            report = check_minimality(gen_staircase_minimal(n, verify=False))
            assert report.is_minimal_nonpierceable
            assert len(made) == 1
            counts.append(made.pop().comparisons)
        assert counts[1] / counts[0] <= 2.6
        assert counts[2] / counts[1] <= 2.6

    def test_staircase_six(self):
        report = check_minimality(gen_staircase_minimal(6))
        assert report.full_family_pierceable is False
        assert report.each_deletion_pierceable == (True,) * 6
        assert report.is_minimal_nonpierceable

    def test_single_cross(self):
        report = check_minimality(inst((0, 2), (0, 2), [((0, 1), (0, 1))]))
        assert report.full_family_pierceable

    def test_duplicated_cross_breaks_minimality(self):
        base = gen_staircase_minimal(4)
        dup = PiercingInstance(base.xdomain, base.ydomain,
                               base.crosses + (base.crosses[3],))
        report = check_minimality(dup)
        assert not report.full_family_pierceable
        # deleting either copy leaves the minimal family
        assert report.blocking == (3, 4)
        assert report.each_deletion_pierceable == (True, True, True, False, False)
        assert not report.is_minimal_nonpierceable


class TestScaling:
    def test_comparisons_roughly_nlogn_doubling(self):
        counts = {}
        for n in (2**8, 2**9, 2**10):
            rng = np.random.RandomState(n)
            total = 0
            for _ in range(5):
                c = QueryCounter()
                solve_piercing(gen_random_piercing(n, rng), c)
                total += c.comparisons
            counts[n] = total / 5
        assert counts[2**9] / counts[2**8] <= 2.6
        assert counts[2**10] / counts[2**9] <= 2.6


def test_verdict_serialization():
    v = solve_piercing(QUAD4, QueryCounter())
    assert v.to_dict() == {"pierceable": False, "queries": v.queries_used}
    w = solve_piercing(inst((0, 2), (0, 2), []), QueryCounter())
    assert w.to_dict()["witness"] == [0, 0]
