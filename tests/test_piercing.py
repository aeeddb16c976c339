import functools
import itertools
import json
import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_grid_points

from coverpierce import coverage, piercing
from coverpierce.core import (
    GT,
    LT,
    CoverageInstance,
    Cross,
    InstanceError,
    Interval,
    Permutation,
    PiercingInstance,
    QueryCounter,
    loads_instance,
)
from coverpierce.coverage import flip_link, gen_chain, gen_random_coverage, solve_coverage
from coverpierce.piercing import (
    MinimalityReport,
    build_envelopes,
    check_minimality,
    gen_random_piercing,
    gen_staircase_literal,
    gen_staircase_minimal,
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


def best_two(values, seed, better):
    """The best two of ``values`` and the y-domain end ``seed``, best first,
    by brute force.  The seed fills both places of an empty aggregate, so it
    counts twice."""
    return sorted(values + [seed, seed], reverse=better is max)[:2]


def steps(env):
    """Each envelope with the ends it steps at and how: the sorted a values
    on the a side, entry k counting the a values at most x, and the sorted b
    values on the b side, entry k counting the b values below x."""
    a_side, b_side = (env.a_ends, bisect_right), (env.b_ends, bisect_left)
    return {"f_nw": (env.f_nw, *a_side), "f_ne": (env.f_ne, *b_side),
            "g_sw": (env.g_sw, *a_side), "g_se": (env.g_se, *b_side)}


def value_at(values, ends, bisect, x):
    """Reference for an envelope as a function of x: entry k applies on
    [a[k-1], a[k]) of the a values or (b[k-1], b[k]] of the b values, the
    first to -inf and the last to +inf."""
    return values[bisect(ends, x)]


class TestEnvelopes:
    def test_staircase_six_values_at_zero(self):
        instance = gen_staircase_minimal(6)
        env = steps(build_envelopes(instance, leave_one_out=True))
        # min d over a > 0 and d0: {8, 1, 3} and 8, held by cross 1 then 3
        assert value_at(*env["f_nw"], 0) == ((1, 1), (3, 3))
        # max c over a > 0 and c0: {2, 0, 0} and 0, 2 held by cross 0; the
        # y-domain end ties the runner-up and, seeded first, keeps its place
        assert value_at(*env["g_sw"], 0) == ((2, 0), (0, None))
        # a verdict's envelopes keep the best pair alone
        env = steps(build_envelopes(instance))
        assert value_at(*env["f_nw"], 0) == ((1, 1),)
        assert value_at(*env["g_sw"], 0) == ((2, 0),)

    def test_empty_instance_is_all_sentinels(self):
        # with no cross, every value is the y-domain end, seeded twice at the
        # leave-one-out depth
        instance = inst((0, 3), (1, 2), [])
        lean = steps(build_envelopes(instance))
        deep = steps(build_envelopes(instance, leave_one_out=True))
        for name, end in [("f_nw", 2), ("f_ne", 2), ("g_sw", 1), ("g_se", 1)]:
            values, ends, _ = deep[name]
            assert ends == ()
            assert values == (((end, None), (end, None)),)
            assert lean[name][0] == (((end, None),),)

    @settings(max_examples=150, deadline=None)
    @given(piercing_instances)
    def test_pointwise_definitions_and_monotonicity(self, instance):
        env = steps(build_envelopes(instance, leave_one_out=True))
        lean = steps(build_envelopes(instance))
        c0, d0 = instance.ydomain.lo, instance.ydomain.hi
        a = [cr.h.lo for cr in instance.crosses]
        b = [cr.h.hi for cr in instance.crosses]
        c = [cr.v.lo for cr in instance.crosses]
        d = [cr.v.hi for cr in instance.crosses]
        corners = [("f_nw", d, d0, min, lambda i, x: a[i] > x),
                   ("f_ne", d, d0, min, lambda i, x: b[i] < x),
                   ("g_sw", c, c0, max, lambda i, x: a[i] > x),
                   ("g_se", c, c0, max, lambda i, x: b[i] < x)]
        for name, ends, seed, better, misses in corners:
            values, *steps_at = env[name]
            for x in range(instance.xdomain.lo, instance.xdomain.hi + 1):
                held = [i for i in range(instance.n) if misses(i, x)]
                (first, i), (second, _) = value_at(values, *steps_at, x)
                assert [first, second] == best_two([ends[i] for i in held], seed, better)
                assert first == seed if i is None else (i in held and ends[i] == first)
                # the same best pair, holder included, without the runner-up
                assert value_at(*lean[name], x) == ((first, i),)
            firsts = [top[0][0] for top in values]
            nonincreasing = name in ("f_ne", "g_sw")
            assert firsts == sorted(firsts, reverse=nonincreasing)

    def test_piece_count_bound(self):
        rng = np.random.RandomState(3)
        instance = gen_random_piercing(40, rng)
        env = steps(build_envelopes(instance))
        for values, ends, _ in env.values():
            assert len(values) <= instance.n + 1
            assert len(values) == len(ends) + 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=12), st.integers(0, 4), st.sampled_from([1, 2]),
           st.sampled_from([(GT, max), (LT, min)]))
    def test_one_kernel_keeps_as_many_pairs_as_seeded(self, values, seed, pairs, better):
        # one comparison per entry with the best, and with two pairs one more
        # per entry that does not beat it, with the runner-up
        order, pick = better
        counter = QueryCounter()
        tops = piercing._best(((seed, None),) * pairs, [(v, i) for i, v in enumerate(values)],
                              counter, order)
        assert len(tops) == len(values) + 1
        records, best = 0, seed
        for v in values:
            records += pick(v, best) != best
            best = pick(v, best)
        assert counter.comparisons == len(values) + (pairs - 1) * (len(values) - records)
        for k, top in enumerate(tops):
            assert len(top) == pairs
            assert [v for v, _ in top] == best_two(values[:k], seed, pick)[:pairs]
            for v, i in top:
                assert v == seed if i is None else (i < k and values[i] == v)


class TestEnvelopesLayer:
    """The solves take their sorts and aggregates from ``build_envelopes``,
    looked up on the module at call time, as a tracer rebinding it sees."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, build = [], piercing.build_envelopes

        def spy(instance, counter=None, **depth):
            before = counter.comparisons
            env = build(instance, counter, **depth)
            calls.append((instance, counter, counter.comparisons - before, depth))
            return env

        monkeypatch.setattr(piercing, "build_envelopes", spy)
        return calls

    INSTANCES = [inst((0, 3), (0, 3), []), DIAG3, QUAD4,
                 gen_random_piercing(30, np.random.RandomState(2))]

    @pytest.mark.parametrize("instance", INSTANCES, ids=["empty", "diag3", "quad4", "random30"])
    def test_solve_piercing_calls_it_once_with_its_counter(self, instance, calls):
        counter = QueryCounter()
        solve_piercing(instance, counter)
        assert [(i, c, d) for i, c, _, d in calls] == [(instance, counter,
                                                        {"leave_one_out": False})]
        assert (calls[0][2] > 0) == (instance.n > 0)

    @pytest.mark.parametrize("instance", INSTANCES, ids=["empty", "diag3", "quad4", "random30"])
    def test_check_minimality_calls_it_once_with_its_counter(self, instance, calls,
                                                            monkeypatch):
        made = []

        def tally():
            made.append(QueryCounter())
            return made[-1]

        monkeypatch.setattr(piercing, "QueryCounter", tally)
        check_minimality(instance)
        assert len(made) == 1
        assert [(i, c, d) for i, c, _, d in calls] == [(instance, made[0],
                                                        {"leave_one_out": True})]


def early_pierced(n):
    """Crosses h = [1+k, 1+2k], v = [0, 9] on [0, 2N] x [0, 9]: every a lies
    right of a0 = 0, and (0, 0) pierces them all."""
    return inst((0, 2 * n), (0, 9), [((1 + k, 1 + 2 * k), (0, 9)) for k in range(n)])


class TestSweepSteps:
    """The sweep steps from a0 to the least a right of x by its own a
    pointer; it merges no list of candidate xs first."""

    INSTANCES = [inst((0, 3), (0, 3), []), DIAG3, QUAD4, early_pierced(5),
                 gen_staircase_minimal(9),
                 inst((0, 4), (0, 4), [((-3, -1), (0, 1)), ((6, 8), (3, 4)), ((2, 2), (2, 2))]),
                 gen_random_piercing(30, np.random.RandomState(2))]

    def test_no_merge_of_candidates(self, monkeypatch):
        def merge(*args, **kwargs):
            raise AssertionError("merge_unique_counted called")

        monkeypatch.setattr(piercing, "merge_unique_counted", merge)
        for instance in self.INSTANCES:
            assert same_verdict_as_oracle(instance)
            assert check_minimality(instance) == minimality_by_solves(instance)

    def test_cost_after_the_envelopes_does_not_grow_with_n(self):
        # an eager merge of a0 into the sorted a values once cost about N
        # comparisons here before the first x was tested
        costs = []
        for n in (100, 1000):
            instance = early_pierced(n)
            envelopes, solve = QueryCounter(), QueryCounter()
            build_envelopes(instance, envelopes)
            verdict = solve_piercing(instance, solve)
            assert verdict.witness == (0, 0)
            costs.append(solve.comparisons - envelopes.comparisons)
        assert costs[0] == costs[1]


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
        # with float bounds the sweep's old b + 1 breakpoints skipped feasible x, and
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

    @pytest.mark.parametrize("shift", [
        lambda xs, ys: (0, 0),
        lambda xs, ys: (-2**63 - min(xs), -2**63 - min(ys)),
        lambda xs, ys: (2**63 - 1 - max(xs), 2**63 - 1 - max(ys)),
        lambda xs, ys: (10**30, -10**30),
    ], ids=["unshifted", "least-2^63", "greatest-2^63-1", "10^30"])
    def test_witness_sound_matches_a_pure_python_check(self, shift):
        # the solver's point, each coordinate of it moved off a cross or out of
        # a domain, and points drawn from every end and its neighbours
        rng, nprng = random.Random(11), np.random.RandomState(11)
        instances = [*(gen_random_piercing(n, nprng) for n in (0, 1, 2, 3, 5, 8, 40)),
                     *map(gen_staircase_minimal, (3, 6)), gen_staircase_literal(8),
                     *bulk_cases(12)]
        outcomes = set()
        for instance in instances:
            xs = [instance.xdomain.lo, instance.xdomain.hi, *instance.h.ravel().tolist()]
            ys = [instance.ydomain.lo, instance.ydomain.hi, *instance.v.ravel().tolist()]
            dx, dy = shift(xs, ys)
            far = moved(instance, dx, dy)
            near = solve_piercing(instance)
            points = [(rng.choice(xs) + dx + rng.choice((-1, 0, 1)),
                       rng.choice(ys) + dy + rng.choice((-1, 0, 1))) for _ in range(40)]
            if near.pierceable:
                x, y = near.witness[0] + dx, near.witness[1] + dy
                points += [(x, y), (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1),
                           (far.xdomain.lo - 1, y), (x, far.ydomain.hi + 1)]
            assert far.h.dtype == (object if shift(xs, ys)[0] == 10**30 else np.int64)
            for point in points:
                verdict = piercing.PiercingVerdict(True, point, 0)
                assert verdict.witness_sound(far) is witness_sound(far, verdict), point
                outcomes.add(witness_sound(far, verdict))
            for verdict in (piercing.PiercingVerdict(False, None, 0),
                            piercing.PiercingVerdict(False, (dx, dy), 0)):
                assert verdict.witness_sound(far) is witness_sound(far, verdict)
        assert outcomes == {True, False}


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


SCALAR = 1 << 62  # a crossover no instance reaches: the scalar reference


def counted(routine, instance, bulk_min_n):
    """``routine(instance, counter)`` and the counter's lt/eq/gt tallies, with
    the crossover at ``bulk_min_n``."""
    counter = QueryCounter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(piercing, "BULK_MIN_N", bulk_min_n)
        out = routine(instance, counter)
    return out, (counter.lt, counter.eq, counter.gt)


def as_tuples(envelopes):
    """Bulk envelopes in the scalar form: tuples of ints, None for index -1."""
    def pair(value, index):
        return value, None if index < 0 else index

    def entry(top):  # the best [value, index] pairs, one or two
        return tuple(pair(*p) for p in top)

    a_ends, b_ends, *tops = (field.tolist() for field in envelopes)
    return piercing.Envelopes(tuple(a_ends), tuple(b_ends),
                              *(tuple(map(entry, field)) for field in tops))


def minimality(instance, counter):
    """``check_minimality(instance)``, made to count on ``counter``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(piercing, "QueryCounter", lambda: counter)
        return check_minimality(instance)


def moved(instance, dx, dy):
    """``instance`` translated by dx along x and dy along y."""
    def move(iv, by):
        return Interval(iv.lo + by, iv.hi + by)

    return PiercingInstance(move(instance.xdomain, dx), move(instance.ydomain, dy),
                            [Cross(move(cr.h, dx), move(cr.v, dy)) for cr in instance.crosses])


def bulk_cases(n):
    """Families of N crosses: a shuffled staircase, which no point pierces;
    the same with one cross repeated in place of another, whose witness lies
    inside the sweep; random crosses with many ties that poke out of the
    domains; and crosses pierced at a0."""
    base = gen_staircase_minimal(n, verify=False)
    crosses = list(base.crosses)
    random.Random(n).shuffle(crosses)
    rng = random.Random(n)
    ties = [(sorted(rng.choices(range(-1, 9), k=2)), sorted(rng.choices(range(-1, 9), k=2)))
            for _ in range(n)]
    return [PiercingInstance(base.xdomain, base.ydomain, crosses),
            PiercingInstance(base.xdomain, base.ydomain, crosses[1:] + crosses[-1:]),
            inst((0, 7), (0, 7), ties), early_pierced(n)]


def took_bulk(instance):
    """Whether ``solve_piercing`` sweeps ``instance`` in bulk."""
    taken, sweep = [], piercing._sweep_bulk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(piercing, "_sweep_bulk", lambda *args: taken.append(True) or sweep(*args))
        solve_piercing(instance)
    return bool(taken)


class TestBulkPath:
    """From ``BULK_MIN_N`` crosses on, ``build_envelopes`` and the sweep run
    in bulk; the scalar path below it is their reference."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(random_families(), perturbed_staircases()))
    @example(inst((0, 3), (0, 3), []))
    @example(inst((0, 3), (0, 3), [((5, 6), (-2, -1))]))
    @example(PiercingInstance(QUAD4.xdomain, QUAD4.ydomain, QUAD4.crosses * 2))
    # cross 0 is pierced as the max c holder at x = 0, then holds the min d at
    # x = 1, where the sweep tests it no more
    @example(inst((0, 2), (0, 9), [((5, 6), (5, 6)), ((1, 2), (0, 3)), ((0, 0), (8, 9))]))
    def test_bulk_routines_match_scalar_at_every_size(self, instance):
        # the crossover at 0 sends even tiny and empty families down the bulk path
        for depth in (False, True):
            build = functools.partial(build_envelopes, leave_one_out=depth)
            solve = functools.partial(solve_piercing, leave_one_out=depth)
            envelopes, tallies = counted(build, instance, 0)
            assert isinstance(envelopes.a_ends, np.ndarray)
            assert (as_tuples(envelopes), tallies) == counted(build, instance, SCALAR)
            assert counted(solve, instance, 0) == counted(solve, instance, SCALAR)

    def test_crossover_both_sides(self):
        n0 = piercing.BULK_MIN_N
        sizes = (n0 - 1, n0, n0 + 1, 4 * n0 + 3)
        for n in sizes:
            for instance in bulk_cases(n):
                assert took_bulk(instance) == (n >= n0), n
                # a verdict's lean sweep, then check_minimality's leave-one-out one
                assert (counted(solve_piercing, instance, n0)
                        == counted(solve_piercing, instance, SCALAR)), n
                assert (counted(minimality, instance, n0)
                        == counted(minimality, instance, SCALAR)), n

    @pytest.mark.parametrize("shift", [
        lambda xs, ys: (-2**63 - min(xs), -2**63 - min(ys)),
        # y reaches 2^63 - 1, the largest int64, and x stops one short: both stay int64
        lambda xs, ys: (2**63 - 2 - max(xs), 2**63 - 1 - max(ys)),
        # x reaches 2^63 - 1 too: the sweep tests b < x with the x-domain's end,
        # and any b there, at the largest int64
        lambda xs, ys: (2**63 - 1 - max(xs), 2**63 - 1 - max(ys)),
        lambda xs, ys: (10**30, 10**30),
    ], ids=["least-2^63", "greatest-2^63-1", "b-2^63-1", "10^30"])
    def test_extreme_coordinates(self, shift):
        # every shift takes the bulk path, int64 or Python ints alike
        for instance in bulk_cases(piercing.BULK_MIN_N):
            xs = [instance.xdomain.lo, instance.xdomain.hi,
                  *(e for cr in instance.crosses for e in (cr.h.lo, cr.h.hi))]
            ys = [instance.ydomain.lo, instance.ydomain.hi,
                  *(e for cr in instance.crosses for e in (cr.v.lo, cr.v.hi))]
            dx, dy = shift(xs, ys)
            far = moved(instance, dx, dy)
            assert took_bulk(far)
            verdict, tallies = counted(solve_piercing, far, piercing.BULK_MIN_N)
            assert (verdict, tallies) == counted(solve_piercing, far, SCALAR)
            near, near_tallies = counted(solve_piercing, instance, SCALAR)
            assert tallies == near_tallies
            report, report_tallies = counted(minimality, far, piercing.BULK_MIN_N)
            assert (report, report_tallies) == counted(minimality, far, SCALAR)
            assert (report, report_tallies) == counted(minimality, instance, SCALAR)
            if verdict.pierceable:
                assert verdict.witness == (near.witness[0] + dx, near.witness[1] + dy)
            assert all(type(v) is int for v in (*(verdict.witness or ()), *report.blocking))
            json.dumps(verdict.to_dict())

    @pytest.mark.parametrize("a_of", [
        lambda rng: rng.choice([-3, -1, 0, 0]) if rng.random() < 0.5 else rng.randint(1, 10),
        lambda rng: rng.randint(11, 14) if rng.random() < 0.5 else rng.randint(0, 10),
        lambda rng: rng.choice([0, 10]) if rng.random() < 0.7 else rng.randint(1, 9),
        lambda rng: 4, lambda rng: 0, lambda rng: 10, lambda rng: -2, lambda rng: 12,
    ], ids=["at-or-below-a0", "beyond-b0", "repeated-at-a0-and-b0",
            *(f"all-{a}" for a in (4, "a0", "b0", -2, 12))])
    def test_sweep_pointers(self, a_of):
        # the a pointer rests after the last of each distinct a in (a0, b0]; the
        # a values passed at or below a0 are compared with a0, the later ones with
        # themselves; both domains are [0, 10]
        for seed in range(24):
            rng = random.Random(seed)
            crosses = []
            for _ in range(rng.choice([1, 2, 5, 40, 130])):
                a, c = a_of(rng), rng.randint(0, 10)
                crosses.append(((a, a + rng.randint(0, 3)), (c, c + rng.randint(0, 2))))
            instance = inst((0, 10), (0, 10), crosses)
            for routine in (solve_piercing, minimality):
                assert counted(routine, instance, 0) == counted(routine, instance, SCALAR), seed


def minimality_solve(instance):
    """The verdict of the one solve ``check_minimality(instance)`` makes, and
    its report."""
    solves, solve = [], piercing.solve_piercing

    def spy(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(piercing, "solve_piercing", spy)
        report = check_minimality(instance)
    (verdict,) = solves
    return verdict, report


def staircases(n):
    """The staircase of N crosses shuffled, and the same with one cross repeated,
    which makes that cross and its copy the only blocking ones."""
    base = gen_staircase_minimal(n, verify=False)
    crosses = list(base.crosses)
    random.Random(n).shuffle(crosses)
    return {"shuffled": PiercingInstance(base.xdomain, base.ydomain, crosses),
            "duplicated": PiercingInstance(base.xdomain, base.ydomain,
                                           crosses + crosses[n // 2:n // 2 + 1])}


def pinned_case(kind, n):
    if kind == "literal":
        return gen_staircase_literal(n)
    if kind == "ladder":
        return gen_staircase_minimal(n, verify=False)
    return staircases(n)[kind]


# check_minimality's (lt, eq, gt), full-family verdict and blocking, recorded
# before a verdict's solve stopped paying for the runner-ups and deletion tests
MINIMALITY_PINS = {
    ("shuffled", 64): ((483, 359, 683), False, ()),
    ("duplicated", 64): ((488, 397, 690), False, (32, 64)),
    ("shuffled", 111): ((914, 686, 1230), False, ()),
    ("duplicated", 111): ((911, 693, 1247), False, (55, 111)),
    ("shuffled", 112): ((927, 696, 1220), False, ()),
    ("duplicated", 112): ((925, 711, 1231), False, (56, 112)),
    ("shuffled", 113): ((944, 700, 1264), False, ()),
    ("duplicated", 113): ((938, 718, 1275), False, (56, 113)),
    ("shuffled", 451): ((4169, 3285, 5676), False, ()),
    ("duplicated", 451): ((4170, 3292, 5689), False, (225, 451)),
    ("literal", 8): ((35, 34, 32), True, ()),
    ("literal", 9): ((41, 41, 37), True, ()),
    ("ladder", 65536): ((884737, 688132, 950302), False, ()),
}


def depth_cases(n):
    """Random crosses, ``bulk_cases`` and a staircase with a repeated cross, at N
    crosses."""
    rng = np.random.RandomState(n)
    return ([gen_random_piercing(n, rng) for _ in range(3)] + bulk_cases(n)
            + [staircases(n)["duplicated"]])


class TestVerdictDepth:
    """A verdict pays for the best holders only; ``check_minimality`` alone
    runs the leave-one-out depth, which keeps the runner-ups and tests the
    deletions."""

    @staticmethod
    def same_verdict_for_less(instance):
        counter = QueryCounter()
        verdict = solve_piercing(instance, counter)
        full, report = minimality_solve(instance)
        assert (verdict.pierceable, verdict.witness) == (full.pierceable, full.witness)
        assert verdict.blocking is None and full.blocking == report.blocking
        assert verdict.queries_used == counter.comparisons <= full.queries_used
        return verdict.queries_used, full.queries_used

    def test_on_both_sides_of_the_crossover(self):
        n0 = piercing.BULK_MIN_N
        for n in (n0 - 1, n0, n0 + 1, 4 * n0 + 3):
            for instance in depth_cases(n):
                lean, full = self.same_verdict_for_less(instance)
                assert lean < full, n

    def test_literal_staircases(self):
        rng = random.Random(89)
        for n in (8, 9):
            for _ in range(20):  # parity-preserving orders: odd places take odd crosses
                order = [0] * n
                order[0::2] = rng.sample(range(1, n + 1, 2), (n + 1) // 2)
                order[1::2] = rng.sample(range(2, n + 1, 2), n // 2)
                self.same_verdict_for_less(gen_staircase_literal(n, order))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_families(), perturbed_staircases()))
    @example(inst((0, 3), (0, 3), []))
    def test_random_families_on_both_paths(self, instance):
        for bulk_min_n in (0, SCALAR):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(piercing, "BULK_MIN_N", bulk_min_n)
                self.same_verdict_for_less(instance)

    @pytest.mark.parametrize("case", sorted(MINIMALITY_PINS), ids=lambda c: f"{c[0]}-{c[1]}")
    def test_check_minimality_keeps_its_tallies(self, case):
        kind, n = case
        counter = QueryCounter()
        report = minimality(pinned_case(kind, n), counter)
        assert ((counter.lt, counter.eq, counter.gt), report.full_family_pierceable,
                report.blocking) == MINIMALITY_PINS[case]


def doubled(instance):
    """``instance`` with every coordinate doubled, so that all of them are even."""
    if isinstance(instance, CoverageInstance):
        d = instance.domain
        return CoverageInstance(Interval(2 * d.lo, 2 * d.hi), ends=2 * instance.ends)
    x, y = instance.xdomain, instance.ydomain
    return PiercingInstance(Interval(2 * x.lo, 2 * x.hi), Interval(2 * y.lo, 2 * y.hi),
                            h=2 * instance.h, v=2 * instance.v)


def coordinates(instance):
    """The domain ends and column values of ``instance``."""
    if isinstance(instance, CoverageInstance):
        domains, columns = [instance.domain], [instance.ends]
    else:
        domains, columns = [instance.xdomain, instance.ydomain], [instance.h, instance.v]
    return {*(e for d in domains for e in (d.lo, d.hi)),
            *(e for column in columns for e in column.ravel().tolist())}


def test_every_comparison_is_between_two_input_values(monkeypatch):
    # the sweep once compared each x with b + 1, which is odd where every
    # coordinate is even, so it counted queries the paper's model never makes
    seen = []
    compare = QueryCounter.compare

    def spy(counter, x, y):
        seen.extend((x, y))
        return compare(counter, x, y)

    def tally_spy(counter, left, right, made=None):
        seen.extend(left.tolist() + right.tolist())
        return tally(counter, left, right, made)

    tally = coverage._tally
    monkeypatch.setattr(QueryCounter, "compare", spy)
    monkeypatch.setattr(coverage, "_tally", tally_spy)
    monkeypatch.setattr(piercing, "BULK_MIN_N", SCALAR)
    for n in range(1, 40):
        rng = np.random.RandomState(n)
        families = [gen_random_piercing(n, rng), gen_random_coverage(n, rng)]
        if n >= 2:
            chain = gen_chain((rng.permutation(n) + 1).tolist())
            families += [chain, flip_link(chain, n // 2 + 1)]
        if n >= 3:
            families.append(gen_staircase_minimal(n))
        for instance in map(doubled, families):
            if isinstance(instance, CoverageInstance):  # the sweep in bulk and as the scalar loop
                runs = [(solve_coverage, 0), (solve_coverage, SCALAR)]
            else:
                runs = [(solve_piercing, SCALAR), (check_minimality, SCALAR)]
            for routine, bulk_min_n in runs:
                monkeypatch.setattr(coverage, "BULK_MIN_N", bulk_min_n)
                seen.clear()
                routine(instance)
                assert seen and set(seen) <= coordinates(instance), (n, routine.__name__)


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
