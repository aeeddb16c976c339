import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coverpierce import coverage
from coverpierce.core import (
    ContainmentViolation,
    CoverageInstance,
    InstanceError,
    Interval,
    Permutation,
    QueryCounter,
    _int_array,
    dump_chunks,
    loads_instance,
)
from coverpierce.coverage import (
    BULK_MIN_N,
    check_equality_by_coverage,
    flip_link,
    gen_chain,
    gen_disjoint,
    gen_random_coverage,
    oracle_coverage,
    solve_coverage,
)
from coverpierce.sorting import merge_sort_counted


def inst(domain, pairs):
    return CoverageInstance(Interval(*domain), [Interval(*p) for p in pairs])


def gap_is_sound(instance, verdict):
    if verdict.covered:
        return verdict.gap_witness is None
    g_lo, g_hi = verdict.gap_witness
    if not (instance.domain.lo <= g_lo < g_hi <= instance.domain.hi):
        return False
    return all(iv.hi <= g_lo or iv.lo >= g_hi for iv in instance.intervals)


coverage_instances = st.integers(min_value=1, max_value=9).flatmap(
    lambda span: st.lists(
        st.tuples(st.integers(0, span), st.integers(0, span)).map(sorted),
        max_size=10,
    ).map(lambda pairs: inst((0, span), pairs))
)

# intervals may poke out of the domain by up to two ranks, or collapse to a point
poking_instances = st.tuples(st.integers(0, 3), st.integers(0, 8)).flatmap(
    lambda p: st.lists(
        st.tuples(st.integers(p[0] - 2, p[0] + p[1] + 2),
                  st.integers(p[0] - 2, p[0] + p[1] + 2)).map(sorted),
        max_size=8,
    ).map(lambda pairs: inst((p[0], p[0] + p[1]), pairs))
)


class TestSolveCoverage:
    def test_chain_three_is_covered(self):
        assert solve_coverage(inst((0, 5), [(0, 2), (1, 4), (3, 5)])).covered

    def test_single_full_interval(self):
        assert solve_coverage(inst((0, 5), [(0, 5)])).covered

    def test_gap_two_three(self):
        v = solve_coverage(inst((0, 5), [(0, 2), (3, 5)]))
        assert not v.covered
        assert v.gap_witness == (2, 3)

    def test_touching_counts(self):
        assert solve_coverage(inst((0, 4), [(0, 2), (2, 4)])).covered

    def test_empty_family_gap_is_whole_interior(self):
        v = solve_coverage(inst((0, 1), []))
        assert not v.covered
        assert v.gap_witness == (0, 1)

    def test_missing_left_edge(self):
        v = solve_coverage(inst((0, 5), [(1, 5)]))
        assert v.gap_witness == (0, 1)

    def test_leftmost_gap_reported(self):
        v = solve_coverage(inst((0, 9), [(0, 1), (3, 4), (6, 9)]))
        assert v.gap_witness == (1, 3)

    def test_point_domain_edge_case(self):
        assert solve_coverage(CoverageInstance(Interval(2, 2), [Interval(2, 2)])).covered
        assert not solve_coverage(CoverageInstance(Interval(2, 2), [])).covered

    def test_point_domain_needs_a_holder(self):
        # the point-domain shortcut once answered "covered" for any N > 0
        for pairs, covered, queries in [([(0, 1)], False, 2), ([(0, 1), (4, 6), (5, 5)], True, 4)]:
            instance = CoverageInstance(Interval(5, 5), [Interval(*p) for p in pairs])
            c = QueryCounter()
            v = solve_coverage(instance, c)
            assert (v.covered, v.gap_witness) == (covered, None)
            assert v.witness_sound(instance)
            assert v.queries_used == c.comparisons == queries

    def test_query_budget(self):
        for n in (1, 5, 17, 64, 200):
            rng = np.random.RandomState(n)
            instance = gen_random_coverage(n, rng)
            c = QueryCounter()
            solve_coverage(instance, c)
            assert c.comparisons <= 4 * n * math.ceil(math.log2(n + 2))

    def test_counter_counts_every_comparison(self):
        c = QueryCounter()
        v = solve_coverage(inst((0, 5), [(0, 2), (1, 4), (3, 5)]), c)
        assert v.queries_used == c.comparisons > 0


class TestOracleCoverage:
    def test_chain_three(self):
        assert oracle_coverage(inst((0, 5), [(0, 2), (1, 4), (3, 5)])).covered

    def test_empty_family(self):
        v = oracle_coverage(inst((0, 1), []))
        assert not v.covered
        assert v.gap_witness == (0, 1)

    def test_touching(self):
        assert oracle_coverage(inst((0, 4), [(0, 2), (2, 4)])).covered

    def test_point_domain(self):
        for pairs, covered in [([], False), ([(0, 1)], False), ([(6, 9), (0, 1)], False),
                               ([(0, 1), (4, 6)], True), ([(5, 5)], True)]:
            instance = CoverageInstance(Interval(5, 5), [Interval(*p) for p in pairs])
            v = oracle_coverage(instance)
            assert (v.covered, v.gap_witness) == (covered, None), pairs
            assert v.witness_sound(instance)

    def test_isolated_point_coverage_inside_gap(self):
        # [2,2] splits the hole; leftmost maximal open gap is (1, 2)
        v = oracle_coverage(inst((0, 4), [(0, 1), (2, 2), (3, 4)]))
        assert not v.covered
        assert v.gap_witness == (1, 2)

    @settings(max_examples=300, deadline=None)
    @given(coverage_instances)
    def test_agrees_with_solver_and_witnesses_sound(self, instance):
        sv = solve_coverage(instance, QueryCounter())
        ov = oracle_coverage(instance)
        assert sv.covered == ov.covered
        assert gap_is_sound(instance, sv)
        assert gap_is_sound(instance, ov)

    def test_exhaustive_small(self):
        span = 4
        ivs = [(l, h) for l in range(span + 1) for h in range(l, span + 1)]
        for n in range(0, 4):
            for combo in itertools.combinations(ivs, n):
                instance = inst((0, span), combo)
                assert (solve_coverage(instance, QueryCounter()).covered
                        == oracle_coverage(instance).covered), combo


class TestIntervalsOutsideDomain:
    """The sweep once stepped past domain.hi to an interval starting there and
    reported a gap that the oracle does not see, or that leaves the domain."""

    @pytest.mark.parametrize("pairs", [[(0, 5), (7, 9)], [(0, 2), (7, 9)]])
    def test_interval_right_of_domain_rejected(self, pairs):
        with pytest.raises(ContainmentViolation):
            solve_coverage(inst((0, 5), pairs), QueryCounter())

    @settings(max_examples=500, deadline=None)
    @given(poking_instances)
    def test_agrees_with_oracle_or_rejects(self, instance):
        dom = instance.domain
        if dom.lo < dom.hi and any(iv.lo > dom.hi for iv in instance.intervals):
            with pytest.raises(ContainmentViolation):
                solve_coverage(instance, QueryCounter())
            return
        sv = solve_coverage(instance, QueryCounter())
        assert sv.covered == oracle_coverage(instance).covered
        assert sv.witness_sound(instance)


class TestGenChain:
    def test_identity_three(self):
        ch = gen_chain((1, 2, 3))
        assert ch.domain == Interval(0, 5)
        assert ch.intervals == (Interval(0, 2), Interval(1, 4), Interval(3, 5))

    def test_swapped_front(self):
        ch = gen_chain((2, 1, 3))
        assert ch.intervals == (Interval(1, 4), Interval(0, 2), Interval(3, 5))

    def test_all_permutations_cover(self):
        for n in (2, 3, 4, 5):
            for perm in itertools.permutations(range(1, n + 1)):
                ch = gen_chain(perm)
                assert solve_coverage(ch, QueryCounter()).covered

    def test_minimal_under_deletion(self):
        rng = np.random.RandomState(5)
        for n in (2, 3, 8, 20, 47):
            perm = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
            ch = gen_chain(perm)
            assert solve_coverage(ch, QueryCounter()).covered
            for i in range(n):
                sub = CoverageInstance(ch.domain, ch.intervals[:i] + ch.intervals[i + 1:])
                assert not solve_coverage(sub, QueryCounter()).covered

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_chain((1,))

    def test_bool_permutation_rejected(self):
        with pytest.raises(InstanceError):
            gen_chain((True, 2))


class TestFlipLink:
    def test_flip_last_link(self):
        flipped = flip_link(gen_chain((1, 2, 3)), 3)
        assert flipped.intervals == (Interval(0, 2), Interval(1, 3), Interval(4, 5))
        v = oracle_coverage(flipped)
        assert not v.covered
        assert v.gap_witness == (3, 4)

    def test_flip_first_link(self):
        flipped = flip_link(gen_chain((1, 2, 3)), 2)
        assert flipped.intervals == (Interval(0, 1), Interval(2, 4), Interval(3, 5))
        v = oracle_coverage(flipped)
        assert not v.covered
        assert v.gap_witness == (1, 2)

    def test_every_flip_breaks_coverage(self):
        rng = np.random.RandomState(11)
        for n in (2, 3, 7, 15, 30):
            perm = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
            ch = gen_chain(perm)
            for k in range(2, n + 1):
                assert not solve_coverage(flip_link(ch, k), QueryCounter()).covered

    def test_position_out_of_range(self):
        ch = gen_chain((1, 2, 3))
        with pytest.raises(ValueError):
            flip_link(ch, 1)
        with pytest.raises(ValueError):
            flip_link(ch, 4)

    @pytest.mark.parametrize("k", [2.0, np.float64(3), True], ids=["float", "numpy-float", "bool"])
    def test_position_must_be_an_integer(self, k):
        # a float once reached numpy indexing and raised IndexError
        ch = gen_chain((1, 2, 3))
        with pytest.raises(InstanceError, match="expected an integer"):
            flip_link(ch, k)
        assert flip_link(ch, np.int64(3)) == flip_link(ch, 3)

    @pytest.mark.parametrize("domain,pairs", [
        ((0, 6), [(0, 2), (1, 4), (3, 5)]),
        ((0, 5), [(0, 2), (3, 4), (4, 5)]),
        ((0, 5), [(0, 2), (1, 3), (3, 5)]),
        ((0, 5), [(0, 2), (1, 5), (3, 5)]),
    ], ids=["wrong-domain", "gap", "moved-link", "repeated-end"])
    def test_rejects_non_chains(self, domain, pairs):
        assert inst((0, 5), [(0, 2), (1, 4), (3, 5)]) == gen_chain((1, 2, 3))
        with pytest.raises(ValueError):
            flip_link(inst(domain, pairs), 2)

    def test_flips_a_chain_with_its_intervals_shuffled(self):
        rng = np.random.RandomState(5)
        for n in (2, 9, 300):
            chain = gen_chain((rng.permutation(n) + 1).tolist())
            rows = rng.permutation(n)
            shuffled = CoverageInstance(chain.domain, ends=chain.ends[rows])
            for k in (2, n // 2 + 1, n):
                flipped = flip_link(chain, k)
                assert flip_link(shuffled, k) == CoverageInstance(chain.domain,
                                                                  ends=flipped.ends[rows])

    def test_rejects_near_chains(self):
        # each start still names a link, or one names none, but some end is off
        n = 300
        chain = gen_chain((np.random.RandomState(7).permutation(n) + 1).tolist())
        at = np.argsort(chain.ends[:, 0])  # interval index of each link
        near = []
        for link, side, by in [(0, 0, 1), (1, 0, -1), (5, 0, 1), (9, 1, 1), (n - 1, 1, -1)]:
            ends = chain.ends.copy()
            ends[at[link], side] += by
            near.append(ends)
        ends = chain.ends.copy()
        ends[at[[3, 4]], 0] = ends[at[[4, 3]], 0]  # two links swap their starts
        near.append(ends)
        ends = chain.ends.copy()
        ends[at[7]] = ends[at[8]]  # a link repeated in place of the one before it
        near.append(ends)
        for ends in near:
            with pytest.raises(ValueError, match=r"^flip_link needs a chain of 300 links"
                                                 r" over \[0, 599\]$"):
                flip_link(CoverageInstance(chain.domain, ends=ends), 2)
        huge = [(0, 2), (1, 4), (3, 10**30)]  # beyond int64: a column of Python ints
        with pytest.raises(ValueError, match=r"^flip_link needs a chain of 3 links"):
            flip_link(inst((0, 5), huge), 2)

    def test_flips_a_chain_reloaded_from_json(self):
        rng = np.random.RandomState(3)
        for n in (2, 3, 9, 70):
            perm = (rng.permutation(n) + 1).tolist()
            text = "".join(dump_chunks(gen_chain(perm)))
            for k in range(2, n + 1):
                assert flip_link(loads_instance(text), k) == flip_link(gen_chain(perm), k)


class TestEqualityByCoverage:
    def test_distinct(self):
        assert check_equality_by_coverage([0, 1, 2])

    def test_duplicate(self):
        assert not check_equality_by_coverage([0, 0, 2])

    def test_permutation(self):
        assert check_equality_by_coverage([2, 1, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_equality_by_coverage([0, 3, 1])

    @pytest.mark.parametrize("values", [[0, 0.5], [0.0, 1.0], [True, 0]])
    def test_non_integers_rejected(self, values):
        # int() once truncated [0, 0.5] to the duplicate pair [0, 0]
        with pytest.raises(InstanceError):
            check_equality_by_coverage(values)

    def test_numpy_integers_accepted(self):
        assert check_equality_by_coverage(np.array([1, 0, 2]))

    @pytest.mark.parametrize("values", [[], np.array([], dtype=np.int64)], ids=["list", "numpy"])
    def test_no_values_are_all_distinct(self, values):
        # once False: no unit intervals leave the empty domain [0, 0] uncovered
        counter = QueryCounter()
        assert check_equality_by_coverage(values, counter)
        assert counter.comparisons == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    def test_agrees_with_duplicate_scan(self, values):
        assert check_equality_by_coverage(values) == (len(set(values)) == len(values))


def test_gen_disjoint_never_covers():
    for n in (1, 2, 9):
        v = solve_coverage(gen_disjoint(n), QueryCounter())
        assert not v.covered


def solved(instance):
    counter = QueryCounter()
    verdict = solve_coverage(instance, counter)
    return verdict, (counter.lt, counter.eq, counter.gt)


def moved(instance, by):
    """``instance`` translated by ``by``: int64 columns where they fit, else Python ints."""
    d = instance.domain
    return CoverageInstance(Interval(d.lo + by, d.hi + by),
                            ends=_int_array([[lo + by, hi + by] for lo, hi in instance.ends.tolist()])
                            .reshape(-1, 2))


def bulk_cases(n):
    """A shuffled chain, which covers; the chain with one link flipped, which
    leaves a gap; and short random intervals with many ties."""
    rng = np.random.RandomState(n)
    chain = gen_chain((rng.permutation(n) + 1).tolist())
    lo = rng.randint(0, n // 2, size=n)
    ties = np.stack([lo, lo + rng.randint(0, 2, size=n)], axis=1)
    return [chain, flip_link(chain, n // 2), CoverageInstance(Interval(0, n // 2), ends=ties)]


class TestBulkPath:
    """From ``coverage.BULK_MIN_N`` intervals on, ``solve_coverage`` sorts the
    column in bulk, int64 or Python ints alike; below it, the scalar merge."""

    @pytest.mark.parametrize("n", [BULK_MIN_N - 1, BULK_MIN_N, 4 * BULK_MIN_N + 3])
    def test_extreme_coordinates(self, n, monkeypatch):
        took_bulk = []

        def spy(keys, counter):
            took_bulk.append(isinstance(keys, np.ndarray))
            return merge_sort_counted(keys, counter)

        monkeypatch.setattr(coverage, "merge_sort_counted", spy)
        for instance in bulk_cases(n):
            near, near_tallies = solved(instance)
            d = instance.domain
            # beyond int64, and up to its least and greatest values
            for by in (10**30, -2**63 - d.lo, 2**63 - 1 - d.hi):
                far = moved(instance, by)
                verdict, tallies = solved(far)
                assert tallies == near_tallies
                assert verdict.covered == near.covered
                if not near.covered:
                    assert verdict.gap_witness == (near.gap_witness[0] + by, near.gap_witness[1] + by)
                    assert all(type(g) is int for g in verdict.gap_witness)
                assert verdict.witness_sound(far)
        assert took_bulk == [n >= BULK_MIN_N] * 12


SCALAR = 1 << 62  # a crossover no instance reaches: the scalar reference


def on_both_paths(instance, monkeypatch):
    """``solve_coverage``'s verdict and tallies, or its ContainmentViolation
    message, with the bulk sort and sweep from N = 0 on and with neither."""
    outcomes = []
    for bulk_min_n in (0, SCALAR):
        monkeypatch.setattr(coverage, "BULK_MIN_N", bulk_min_n)
        try:
            verdict, tallies = solved(instance)
        except ContainmentViolation as exc:
            outcomes.append(str(exc))
            continue
        assert verdict.gap_witness is None or all(type(g) is int for g in verdict.gap_witness)
        outcomes.append((verdict, tallies))
    return outcomes


def sweep_cases():
    """Chains, flipped chains, random coverage, nested and all-equal intervals,
    a gap that ends at domain.hi, one that starts at domain.lo, and intervals
    that leave the domain on either side, one of them starting right of it,
    which raises, each at a few sizes."""
    for n in (2, 3, 5, 17, 64, 129):
        rng = np.random.RandomState(n)
        chain = gen_chain((rng.permutation(n) + 1).tolist())
        yield chain
        yield flip_link(chain, n // 2 + 1)
        yield flip_link(chain, n)
        yield gen_random_coverage(n, rng)
        yield gen_disjoint(n)
        nested = np.stack([np.arange(n), 2 * n - np.arange(n)], axis=1)[rng.permutation(n)]
        yield CoverageInstance(Interval(0, 2 * n), ends=nested)
        yield CoverageInstance(Interval(n, 2 * n), ends=nested)  # starts left of the domain
        yield CoverageInstance(Interval(0, 4), ends=np.tile([1, 3], (n, 1)))  # all equal
        yield CoverageInstance(Interval(1, 3), ends=np.tile([1, 3], (n, 1)))
        yield CoverageInstance(Interval(0, 3 * n), ends=nested)  # the gap ends at domain.hi
        shuffled = rng.permutation(n)
        yield CoverageInstance(Interval(0, n), ends=np.stack([shuffled, shuffled + 2], axis=1))
        yield CoverageInstance(Interval(0, n - 1), ends=np.stack([shuffled, shuffled + 1], axis=1))
        yield CoverageInstance(Interval(0, n - 1), ends=np.stack([shuffled, shuffled], axis=1) + 1)


class TestBulkSweep:
    """From ``BULK_MIN_N`` intervals on the sweep is a running maximum and
    counts; it must give the scalar loop's verdict, gap and tallies."""

    @pytest.mark.parametrize("shift", [0, 10**30, -(10**30)])
    def test_matches_the_scalar_sweep(self, shift, monkeypatch):
        for instance in sweep_cases():
            instance = moved(instance, shift) if shift else instance
            assert instance.ends.dtype == (np.int64 if not shift else object)
            bulk, scalar = on_both_paths(instance, monkeypatch)
            assert bulk == scalar, instance

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance=st.one_of(coverage_instances, poking_instances),
           shift=st.sampled_from([0, 10**30]))
    def test_matches_the_scalar_sweep_on_small_families(self, instance, shift, monkeypatch):
        # poking families include intervals right of the domain, which raise
        bulk, scalar = on_both_paths(moved(instance, shift), monkeypatch)
        assert bulk == scalar

    def test_gap_ending_at_the_domain_end(self, monkeypatch):
        instance = CoverageInstance(Interval(0, 10), ends=np.tile([0, 4], (70, 1)))
        for verdict, _ in on_both_paths(instance, monkeypatch):
            assert verdict.gap_witness == (4, 10)


class TestWitnessSound:
    @settings(max_examples=300, deadline=None)
    @given(coverage_instances, st.integers(-1, 10), st.integers(-1, 10),
           st.sampled_from([0, 10**30]))
    def test_agrees_with_a_scan_of_the_intervals(self, instance, g_lo, g_hi, shift):
        instance = moved(instance, shift)
        verdict = coverage.CoverageVerdict(False, (g_lo + shift, g_hi + shift), 0)
        assert verdict.witness_sound(instance) is gap_is_sound(instance, verdict)

    def test_oracle_on_domain_ends_of_both_signs_beyond_int64(self):
        # numpy makes floats of a list holding -1 and 2^63 + 1, which would round the gap
        big = 2**63 + 1
        for pairs, gap in (([[-1, 0], [2, big]], (0, 2)), ([[-1, 5]], (5, big))):
            instance = CoverageInstance(Interval(-1, big), ends=np.array(pairs, dtype=object))
            assert oracle_coverage(instance).gap_witness == gap
            assert solve_coverage(instance).gap_witness == gap

    def test_oracle_gaps_are_python_ints(self):
        for instance in sweep_cases():
            for shifted in (instance, moved(instance, 10**30)):
                gap = oracle_coverage(shifted).gap_witness
                assert gap is None or all(type(g) is int for g in gap)
