from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlabel import (
    GeneratorSpec,
    PolyFamily,
    generate,
    generic_defective_coloring,
    generic_delta2_coloring,
    residual_elements,
    smallest_prime_geq,
    verify_cover_free,
)
from genlabel.coverfree import ExhaustiveBudgetError, is_prime
from genlabel.vertex_coloring import InvariantError, _field_tables, _residual_by_roots


def naive_set(q, d, index):
    """Independent reconstruction of S_g: literal polynomial evaluation."""
    coeffs = []
    for _ in range(d + 1):
        index, r = divmod(index, q)
        coeffs.append(r)
    points = set()
    for a in range(q):
        y = sum(c * a**i for i, c in enumerate(coeffs)) % q
        points.add(a * q + y)
    return points


def naive_residual(q, d, s0, others, rho):
    """Independent recount of elements of S_s0 covered <= rho times."""
    target = naive_set(q, d, s0)
    out = []
    for x in sorted(target):
        hits = sum(x in naive_set(q, d, j) for j in others)
        if hits <= rho:
            out.append(x)
    return out


class TestPrimes:
    @pytest.mark.parametrize("x,expected", [(6, 7), (1, 2), (13, 13), (2, 2), (90, 97)])
    def test_smallest_prime_geq(self, x, expected):
        assert smallest_prime_geq(x) == expected

    @given(st.integers(2, 5000))
    @settings(max_examples=200, deadline=None)
    def test_bertrand(self, x):
        p = smallest_prime_geq(x)
        assert x <= p < 2 * x
        assert is_prime(p)


class TestPolyFamily:
    def test_counts_d2_q3(self):
        fam = PolyFamily(q=3, d=2)
        assert fam.family_size == 27
        assert all(len(fam.set_elements(i)) == 3 for i in range(27))

    def test_zero_polynomial(self):
        fam = PolyFamily(q=3, d=2)
        assert fam.set_elements(0) == frozenset({0, 3, 6})  # (0,0),(1,0),(2,0)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            PolyFamily(q=6, d=2)

    def test_lines_intersect_leq_1(self):
        fam = PolyFamily(q=5, d=1)
        sets = [fam.set_elements(i) for i in range(25)]
        for i, j in combinations(range(25), 2):
            assert len(sets[i] & sets[j]) <= 1

    @pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_pairwise_intersection_exhaustive(self, q, d):
        fam = PolyFamily(q=q, d=d)
        sets = [fam.set_elements(i) for i in range(fam.family_size)]
        for i, j in combinations(range(fam.family_size), 2):
            assert len(sets[i] & sets[j]) <= d
            assert len(sets[i]) == q

    def test_matches_naive_reconstruction(self):
        fam = PolyFamily(q=5, d=2)
        for idx in range(0, 125, 7):
            assert fam.set_elements(idx) == naive_set(5, 2, idx)


class TestResidual:
    def test_no_others_full_set(self):
        fam = PolyFamily(q=7, d=2)
        assert residual_elements(fam, 5, []) == sorted(fam.set_elements(5))

    def test_s0_in_others_rejected(self):
        fam = PolyFamily(q=3, d=1)
        with pytest.raises(ValueError):
            residual_elements(fam, 1, [1, 2])

    def test_bad_index_rejected(self):
        fam = PolyFamily(q=3, d=1)
        with pytest.raises(ValueError):
            residual_elements(fam, 0, [99])

    def test_matches_naive_recount(self):
        fam = PolyFamily(q=5, d=2)
        import random

        r = random.Random(0)
        for _ in range(60):
            s0 = r.randrange(125)
            others = r.sample([j for j in range(125) if j != s0], 4)
            for rho in (0, 1):
                assert residual_elements(fam, s0, others, rho) == naive_residual(
                    5, 2, s0, others, rho)

    @given(st.data(), st.sampled_from([(3, 1), (5, 1), (5, 2), (7, 2)]),
           st.sampled_from([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_repeated_others_match_naive_recount(self, data, qd, rho):
        """A covering set listed twice counts twice."""
        q, d = qd
        fam = PolyFamily(q=q, d=d)
        n = fam.family_size
        s0 = data.draw(st.integers(0, n - 1))
        pool = st.integers(0, n - 1).filter(lambda j: j != s0)
        distinct = data.draw(st.lists(pool, min_size=1, max_size=4, unique=True))
        repeats = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
        others = data.draw(st.permutations(distinct + repeats))
        assert residual_elements(fam, s0, others, rho) == naive_residual(
            q, d, s0, others, rho)

    def test_residual_bound_d2_q7_sampled(self):
        # any 2 other sets leave at least q - d*2 = 3 >= Delta elements
        fam = PolyFamily(q=7, d=2)
        import random

        r = random.Random(1)
        for _ in range(2000):
            s0 = r.randrange(343)
            others = r.sample([j for j in range(343) if j != s0], 2)
            assert len(residual_elements(fam, s0, others, 0)) >= 3

    def test_rho1_nonempty_d2_q5(self):
        # Delta = ceil(5*2/2) - 1 = 4 others cannot 2-cover any set
        fam = PolyFamily(q=5, d=2)
        import random

        r = random.Random(2)
        for _ in range(2000):
            s0 = r.randrange(125)
            others = r.sample([j for j in range(125) if j != s0], 4)
            assert residual_elements(fam, s0, others, rho=1)


class TestResidualByRoots:
    """The pipeline's residual round against the point-set oracle."""

    @given(st.data(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_residual_elements(self, data, q, rho):
        n = q**3
        color = data.draw(st.integers(0, n - 1))
        pool = st.integers(0, n - 1).filter(lambda j: j != color)
        others = data.draw(st.lists(pool, max_size=2 * q))
        assert _residual_by_roots(q, color, others, rho, _field_tables(q)) == (
            residual_elements(PolyFamily(q, 2), color, others, rho))

    def test_color_in_others_rejected(self):
        with pytest.raises(InvariantError):
            _residual_by_roots(5, 7, [3, 7], 0, _field_tables(5))


class TestVerifyCoverFree:
    def test_exhaustive_d1_q5(self):
        fam = PolyFamily(q=5, d=1)
        verdict = verify_cover_free(fam, delta=4, rho=0, mode="exhaustive")
        assert verdict.ok
        from math import comb

        assert verdict.tuples_checked == comb(24, 4) * 25

    def test_sampled_d2_q5(self):
        fam = PolyFamily(q=5, d=2)
        verdict = verify_cover_free(fam, delta=2, rho=0, mode="sampled", trials=10_000)
        assert verdict.ok and verdict.tuples_checked == 10_000

    def test_too_many_covering_sets_found(self):
        # delta = q lines can cover a line: constants through each abscissa
        fam = PolyFamily(q=5, d=1)
        verdict = verify_cover_free(fam, delta=5, rho=0, mode="sampled",
                                    trials=20_000, seed=3)
        assert not verdict.ok
        s0, *others = verdict.counterexample
        # re-check the counterexample with the naive oracle
        assert naive_residual(5, 1, s0, others, 0) == []

    def test_exhaustive_budget_refusal(self):
        fam = PolyFamily(q=7, d=2)  # 343 sets
        with pytest.raises(ExhaustiveBudgetError):
            verify_cover_free(fam, delta=4, mode="exhaustive", budget=1000)


class TestFamilyMemo:
    def test_equality_and_hash_ignore_the_memo(self):
        used, fresh = PolyFamily(q=7, d=2), PolyFamily(q=7, d=2)
        for i in range(0, 343, 5):
            assert used.elements(i) == fresh.set_elements(i)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == "PolyFamily(q=7, d=2)"
        assert PolyFamily(q=7, d=1) != fresh

    @pytest.mark.parametrize("run", [
        lambda g: generic_delta2_coloring(g),
        lambda g: generic_defective_coloring(g, p=1),
    ], ids=["delta2", "defective"])
    def test_pipeline_computes_each_set_once(self, monkeypatch, run):
        """Only the reduction steps build point sets, one family instance per
        step, and each (family instance, index) set at most once per run; the
        residual round counts roots and builds none."""
        calls = Counter()
        families = []  # kept alive so that id() stays unique
        original = PolyFamily.set_elements

        def counted(fam, index):
            families.append(fam)
            calls[id(fam), index] += 1
            return original(fam, index)

        monkeypatch.setattr(PolyFamily, "set_elements", counted)
        g = generate(GeneratorSpec("random-tree", 2000, max_deg=3, seed=3))
        res = run(g)
        steps = res.params["reduction_steps"]
        assert steps and not res.failed
        assert len({id(f) for f in families}) == len(steps)
        assert {(f.d, f.q) for f in families} == {tuple(s) for s in steps}
        assert max(calls.values()) == 1
