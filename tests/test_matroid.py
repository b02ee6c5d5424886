"""Transversal matroid girth: Hall oracle, random representations, gadgets."""

import itertools
import math
import random

import pytest

from sparkforge import (
    BipartiteGraph,
    SimpleGraph,
    clique_gadget,
    girth_via_representation,
    hall_girth,
    matroid,
    random_representation,
    rank_exact,
    spark,
    spark_engine,
)
from sparkforge.errors import BadK, BudgetExceeded, CapExceeded, ShapeError
from sparkforge.spark_engine import SparkCertificate


def _random_bipartite(rng, ground_max=7, right_max=5):
    ground = rng.randint(1, ground_max)
    right = rng.randint(1, right_max)
    adj = tuple(
        tuple(sorted(rng.sample(range(right), rng.randint(0, right))))
        for _ in range(ground)
    )
    return BipartiteGraph(ground, right, adj)


def _k_complete(n):
    return SimpleGraph(n, tuple(itertools.combinations(range(n), 2)))


def _has_4_clique(g):
    edges = set(g.edges)
    for quad in itertools.combinations(range(g.vertices), 4):
        if all(pair in edges for pair in itertools.combinations(quad, 2)):
            return True
    return False


def test_graph_canonicalization():
    g = BipartiteGraph(2, 3, ((2, 0, 2), (1,)))
    assert g.adj == ((0, 2), (1,))
    assert BipartiteGraph.from_dict(g.to_dict()) == g
    sg = SimpleGraph.from_dict({"vertices": 3, "edges": [[2, 1], [0, 1], [1, 2]]})
    assert sg.edges == ((0, 1), (1, 2))
    with pytest.raises(ShapeError):
        SimpleGraph(3, ((1, 1),))
    with pytest.raises(ShapeError):
        BipartiteGraph(1, 2, ((0, 2),))


def test_hall_girth_shared_neighbor():
    g = BipartiteGraph(2, 3, ((1,), (1,)))
    res = hall_girth(g)
    assert res.girth == 2
    assert res.witness == (0, 1)
    assert res.method == "hall_oracle"


def test_hall_girth_complete_bipartite_is_free():
    g = BipartiteGraph(3, 3, ((0, 1, 2),) * 3)
    res = hall_girth(g)
    assert res.girth == 4
    assert res.sentinel
    assert res.witness is None


def test_hall_girth_isolated_element():
    g = BipartiteGraph(3, 2, ((0,), (), (1,)))
    res = hall_girth(g)
    assert res.girth == 1
    assert res.witness == (1,)


def test_hall_girth_budget():
    g = BipartiteGraph(6, 6, (tuple(range(6)),) * 6)
    with pytest.raises(BudgetExceeded):
        hall_girth(g, budget=10)


def test_random_representation_zero_pattern():
    rng = random.Random(41)
    for _ in range(30):
        g = _random_bipartite(rng)
        m = random_representation(g, rng.randint(0, 10**6))
        assert m.rows == g.right_size and m.cols == g.ground_size
        hi = g.ground_size * 2 ** (g.ground_size + 1)
        assert m.kind == "int"
        for j in range(g.ground_size):
            support = tuple(i for i in range(g.right_size) if m.entry(i, j) != 0)
            assert support == g.adj[j]
            for i in support:
                assert 1 <= m.entry(i, j) <= hi


def test_random_representation_deterministic_per_seed():
    g = BipartiteGraph(3, 3, ((0, 1), (1, 2), (0, 2)))
    assert random_representation(g, 77) == random_representation(g, 77)
    assert random_representation(g, 77) != random_representation(g, 78)


def test_representation_spark_never_exceeds_hall_girth():
    rng = random.Random(42)
    for _ in range(100):
        g = _random_bipartite(rng)
        if all(len(a) == 0 for a in g.adj):
            continue
        girth = hall_girth(g).girth
        m = random_representation(g, rng.randint(0, 10**6))
        assert spark(m).spark <= girth


def test_girth_via_representation_free_matroid():
    g = BipartiteGraph(3, 3, ((0,), (1,), (2,)))
    res = girth_via_representation(g, trials=3, rng_seed=5)
    assert res.girth == 4
    assert res.sentinel
    assert res.method == "representation"
    assert res.trials == 3 and res.seed == 5


@pytest.mark.parametrize("ground, right", [(0, 0), (0, 2), (1, 0), (3, 0), (3, 2)])
def test_girth_via_representation_edgeless_graph_matches_hall(ground, right):
    g = BipartiteGraph(ground, right, ((),) * ground)
    res = girth_via_representation(g, trials=4, rng_seed=9)
    hall = hall_girth(g)
    assert (res.girth, res.witness, res.sentinel) == (hall.girth, hall.witness, hall.sentinel)
    assert res.girth == 1
    assert res.witness == ((0,) if ground else None)
    assert res.method == "representation"
    assert res.trials == 4 and res.seed == 9


def test_girth_via_representation_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        girth_via_representation(BipartiteGraph(0, 0, ()), trials=0, rng_seed=0)


def test_girth_via_representation_matches_hall_on_fixed_graphs():
    rng = random.Random(31)
    graphs = [_random_bipartite(rng) for _ in range(20)]
    for g in graphs:
        want = hall_girth(g).girth
        got = girth_via_representation(g, trials=10, rng_seed=1234)
        assert got.girth == want, g


def test_girth_via_representation_draws_each_seed_when_it_is_used(monkeypatch):
    # One draw already reaches the ceiling here, so one seed is drawn, not 10^5.
    seeds = []

    class Counting(random.Random):
        def randrange(self, *args, **kwargs):
            if args == (2**62,):
                seeds.append(args)
            return super().randrange(*args, **kwargs)

    monkeypatch.setattr(matroid.random, "Random", Counting)
    res = girth_via_representation(BipartiteGraph(3, 3, ((0,), (1,), (2,))), trials=10**5, rng_seed=5)
    assert res.girth == 4 and len(seeds) == 1


def _eager_girth(g, trials, rng_seed):
    """The estimate with every seed drawn before the first representation."""
    master = random.Random(rng_seed)
    seeds = [master.randrange(2**62) for _ in range(trials)]
    best = None
    for s in seeds:
        cert = spark(random_representation(g, s))
        if best is None or cert.spark > best.spark:
            best = cert
        if best.spark > min(g.right_size, g.ground_size):
            break
    return best.spark, best.witness


def test_girth_via_representation_matches_eager_seed_drawing():
    rng = random.Random(97)
    for _ in range(40):
        g = _random_bipartite(rng)
        if not any(g.adj):
            continue
        trials, seed = rng.randint(1, 6), rng.randrange(10**6)
        res = girth_via_representation(g, trials=trials, rng_seed=seed)
        assert (res.girth, res.witness) == _eager_girth(g, trials, seed), g


def test_girth_via_representation_stops_at_the_ceiling(monkeypatch):
    # Draws stop once one reaches min(right, ground) + 1, which no draw can
    # pass; the result is the max over every draw, the first of equals.
    calls = []
    monkeypatch.setattr(spark_engine, "spark", lambda a, budget: calls.append(a) or spark(a, budget))
    rng = random.Random(61)
    early = 0
    for _ in range(60):
        g = _random_bipartite(rng)
        if not any(g.adj):
            continue
        trials, seed = rng.randint(1, 6), rng.randrange(10**6)
        master = random.Random(seed)
        draws = [spark(random_representation(g, master.randrange(2**62))) for _ in range(trials)]
        best = max(draws, key=lambda cert: cert.spark)
        ceiling = min(g.right_size, g.ground_size) + 1
        drawn = next((i + 1 for i, c in enumerate(draws) if c.spark == ceiling), trials)
        calls.clear()
        res = girth_via_representation(g, trials, seed)
        assert (res.girth, res.witness) == (best.spark, best.witness), g
        assert len(calls) == drawn, g
        early += drawn < trials
    assert early > 0
    # Of equal sparks the first draw is kept, as max keeps it.
    draws = iter(
        SparkCertificate(k, 3, 5, w, 0, "exact")
        for k, w in [(2, (0, 1)), (3, (0, 1, 2)), (3, (1, 2, 3)), (2, (0, 3)), (4, None)]
    )
    monkeypatch.setattr(spark_engine, "spark", lambda a, budget: next(draws))
    g = BipartiteGraph(5, 3, ((0,), (1,), (2,), (0, 1), (1, 2)))
    res = girth_via_representation(g, trials=4, rng_seed=0)
    assert (res.girth, res.witness) == (3, (0, 1, 2)) and next(draws).spark == 4


def test_girth_witness_is_rank_deficient():
    rng = random.Random(54)
    for _ in range(40):
        g = _random_bipartite(rng)
        res = girth_via_representation(g, trials=6, rng_seed=99)
        if res.witness is None:
            continue
        # Hall check on the witness: its neighborhood is smaller than it.
        hood = set()
        for e in res.witness:
            hood.update(g.adj[e])
        assert len(hood) < len(res.witness)


def test_single_trial_agreement_rate_meets_half():
    # Agreement holds per draw with probability >= 1/2; reject only if the
    # observed count lands in the lower 1% binomial tail.
    rng = random.Random(32)
    agreements = 0
    for _ in range(100):
        g = _random_bipartite(rng)
        want = hall_girth(g).girth
        got = girth_via_representation(g, trials=1, rng_seed=rng.randint(0, 10**9))
        agreements += got.girth == want
    tail = sum(math.comb(100, i) for i in range(agreements + 1)) / 2**100
    assert tail > 0.01, f"agreement {agreements}/100 below the 99% binomial bound"


def test_hall_girth_monotone_under_added_neighbors():
    rng = random.Random(43)
    for _ in range(50):
        g = _random_bipartite(rng)
        before = hall_girth(g).girth
        grown = []
        changed = False
        for neigh in g.adj:
            missing = sorted(set(range(g.right_size)) - set(neigh))
            if missing and not changed and rng.random() < 0.8:
                grown.append(tuple(sorted(neigh + (rng.choice(missing),))))
                changed = True
            else:
                grown.append(neigh)
        after = hall_girth(BipartiteGraph(g.ground_size, g.right_size, tuple(grown)))
        assert after.girth >= before


def test_clique_gadget_k5():
    gadget = clique_gadget(_k_complete(5), 4)
    assert gadget.ground_size == 10
    assert gadget.right_size == 5 + math.comb(4, 2) - 4 - 1
    res = hall_girth(gadget)
    assert res.girth == math.comb(4, 2)
    assert res.witness is not None
    # The witness is exactly the edge set of a 4-clique.
    quad = sorted({v for e in res.witness for v in _k_complete(5).edges[e]})
    assert len(quad) == 4


def test_clique_gadget_c5_has_no_dependent_set():
    c5 = SimpleGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    res = hall_girth(clique_gadget(c5, 4))
    # Sentinel 6 numerically collides with C(4,2); the missing witness is
    # what distinguishes "free matroid" from "girth six".
    assert res.sentinel
    assert res.witness is None


def test_clique_gadget_rejects_small_k():
    with pytest.raises(BadK):
        clique_gadget(_k_complete(5), 3)


def test_clique_gadget_entry_cap_admits_exactly_its_size(monkeypatch):
    k5 = _k_complete(5)  # 10 edges of 2 + C(4,2) - 4 - 1 = 3 entries each
    monkeypatch.setattr(matroid, "MAX_GADGET_ENTRIES", 30)
    assert clique_gadget(k5, 4).ground_size == 10
    monkeypatch.setattr(matroid, "MAX_GADGET_ENTRIES", 29)
    with pytest.raises(CapExceeded, match="30 adjacency entries"):
        clique_gadget(k5, 4)


def test_clique_gadget_soundness_sampled_graphs():
    rng = random.Random(44)
    all_edges = list(itertools.combinations(range(6), 2))
    seen_with = seen_without = 0
    for _ in range(50):
        picked = tuple(e for e in all_edges if rng.random() < 0.55)
        g = SimpleGraph(6, picked)
        res = hall_girth(clique_gadget(g, 4))
        found = res.girth == math.comb(4, 2) and res.witness is not None
        assert found == _has_4_clique(g), g
        seen_with += found
        seen_without += not found
    assert seen_with >= 5 and seen_without >= 5
