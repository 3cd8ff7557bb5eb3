"""Flow systems, VI, enumeration, seed heuristics and the taboo search."""

import numpy as np
import pytest

from temponet import (
    ConfigurationError,
    LatticeOverflowError,
    SearchConfig,
    build_flow_system,
    count_lattice,
    enumerate_lattice,
    iter_lattice,
    kernel_basis,
    materialize_flow,
    mi_greedy,
    seed_pool,
    taboo_search,
    variation_of_information,
    vi_partitions,
)
from temponet.transition import best_of_pool

from oracles import brute_force_flow_count, random_feasible, vi_reference


def test_vi_identical_clusterings_is_zero():
    u = np.diag([4, 7, 2])
    assert variation_of_information(u) == 0.0
    assert vi_partitions([{1, 2}, {3}], [{3}, {1, 2}]) == 0.0


def test_vi_hand_value():
    # X = {{a,b},{c,d}}, Y = {{a,c},{b,d}}: r = 1/4 everywhere -> 2 ln 2
    u = np.array([[1, 1], [1, 1]])
    assert variation_of_information(u) == pytest.approx(2 * np.log(2), abs=1e-12)


def test_vi_agrees_with_entropy_route():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        labels_x = rng.integers(0, int(rng.integers(1, 6)), n)
        labels_y = rng.integers(0, int(rng.integers(1, 6)), n)
        px = [set(np.flatnonzero(labels_x == c)) for c in np.unique(labels_x)]
        py = [set(np.flatnonzero(labels_y == c)) for c in np.unique(labels_y)]
        assert vi_partitions(px, py) == pytest.approx(vi_reference(px, py), abs=1e-10)


def test_vi_rejects_mismatched_node_sets():
    with pytest.raises(ConfigurationError):
        vi_partitions([{1, 2}], [{1, 2, 3}])


def test_vi_metric_axioms():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 50))

        def part():
            labels = rng.integers(0, int(rng.integers(1, 6)), n)
            return [set(np.flatnonzero(labels == c)) for c in np.unique(labels)]

        x, y, z = part(), part(), part()
        vxy = vi_partitions(x, y)
        vyx = vi_partitions(y, x)
        assert vxy >= -1e-12
        assert vxy == pytest.approx(vyx, abs=1e-9)
        assert vi_partitions(x, x) == pytest.approx(0.0, abs=1e-9)
        assert vi_partitions(x, z) <= vxy + vi_partitions(y, z) + 1e-9


def test_build_flow_system_shapes_and_validation():
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    assert (system.k, system.l) == (3, 3)
    a, b = system.equations(reduced=True)
    assert a.shape == (5, 9) and b.shape == (5,)
    full_a, full_b = system.equations(reduced=False)
    assert np.linalg.matrix_rank(full_a) == 5  # rank(A) = |B| - 1
    with pytest.raises(ConfigurationError):
        build_flow_system((3, 3), (4, 4))


def test_single_community_systems_are_unique():
    assert count_lattice(build_flow_system((7,), (7,))) == 1
    sols = enumerate_lattice(build_flow_system((7,), (3, 4)), 10)
    assert len(sols) == 1 and sols[0].tolist() == [[3, 4]]


def test_enumeration_matches_brute_force_on_tiny_systems():
    rng = np.random.default_rng(2)
    for _ in range(40):
        k, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n = int(rng.integers(max(k, l), 9))
        a = rng.multinomial(n, np.ones(k) / k)
        b = rng.multinomial(n, np.ones(l) / l)
        system = build_flow_system(tuple(int(x) for x in a), tuple(int(x) for x in b))
        want = brute_force_flow_count(list(a), list(b))
        assert count_lattice(system) == want
        sols = enumerate_lattice(system, 100_000)
        assert len(sols) == want
        keys = {tuple(u.ravel()) for u in sols}
        assert len(keys) == want  # exactly once each
        for u in sols:
            assert system.is_feasible(u)


def test_enumerate_cap_overflow_signal():
    system = build_flow_system((16, 16, 16), (16, 16, 16))
    with pytest.raises(LatticeOverflowError):
        enumerate_lattice(system, 100)
    with pytest.raises(LatticeOverflowError):
        count_lattice(system, cap=100)


def test_hand_enumeration_2x2():
    sols = enumerate_lattice(build_flow_system((2, 2), (2, 2)), 100)
    assert len(sols) == 3  # u11 in {0, 1, 2}


def test_kernel_basis_dimension_and_nullspace():
    for sizes in (((10, 8, 6), (12, 10, 2)), ((5, 5), (4, 3, 3)), ((9,), (9,))):
        system = build_flow_system(*sizes)
        basis = kernel_basis(system)
        assert len(basis) == (system.k - 1) * (system.l - 1)
        a, _ = system.equations(reduced=False)
        dense = [v.dense(system.k, system.l).ravel() for v in basis]
        for vec in dense:
            assert (a @ vec == 0).all()
        if dense:
            assert np.linalg.matrix_rank(np.stack(dense)) == len(dense)


def test_mi_greedy_diagonal_on_identical_multisets():
    system = build_flow_system((16, 16, 16), (16, 16, 16))
    flow = mi_greedy(system)
    assert np.array_equal(flow, np.diag([16, 16, 16]))
    assert variation_of_information(flow) == 0.0
    assert mi_greedy(build_flow_system((9,), (9,))).tolist() == [[9]]


def test_mi_greedy_in_lowest_decile_of_small_space():
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    vis = sorted(variation_of_information(u) for u in iter_lattice(system))
    got = variation_of_information(mi_greedy(system))
    decile = vis[len(vis) // 10]
    assert got <= decile


def test_seed_pool_feasible_and_unique_solution_case():
    system = build_flow_system((12,), (12,))
    for flow in seed_pool(system):
        assert flow.tolist() == [[12]]
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    for flow in seed_pool(system):
        assert system.is_feasible(flow)


def test_best_of_pool_beats_random_feasible():
    rng = np.random.default_rng(4)
    wins = 0
    trials = 300
    for _ in range(trials):
        k, l = int(rng.integers(3, 11)), int(rng.integers(3, 11))
        n = int(rng.integers(max(k, l) * 2, 80))
        a = 1 + rng.multinomial(n - k, np.ones(k) / k)
        b = 1 + rng.multinomial(n - l, np.ones(l) / l)
        system = build_flow_system(tuple(int(x) for x in a), tuple(int(x) for x in b))
        pool_vi = variation_of_information(best_of_pool(system))
        rand_vi = variation_of_information(random_feasible(system, rng))
        wins += pool_vi <= rand_vi + 1e-12
    assert wins >= int(trials * 0.95)


def test_taboo_returns_seed_when_already_optimal():
    system = build_flow_system((16, 16, 16), (16, 16, 16))
    seed = mi_greedy(system)
    found = taboo_search(system, seed, kernel_basis(system), SearchConfig(10, 3))
    assert np.array_equal(found, seed)


def test_taboo_matches_enumerated_optimum_small_space():
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    best = min(variation_of_information(u) for u in iter_lattice(system))
    found = taboo_search(
        system, best_of_pool(system), kernel_basis(system), SearchConfig(50, 10),
        check_feasible=True,
    )
    assert variation_of_information(found) == pytest.approx(best, abs=1e-12)


def test_taboo_never_worse_than_seed():
    rng = np.random.default_rng(917)
    for _ in range(30):
        k, l = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        n = int(rng.integers(max(k, l) + 1, 40))
        a = 1 + rng.multinomial(n - k, np.ones(k) / k)
        b = 1 + rng.multinomial(n - l, np.ones(l) / l)
        system = build_flow_system(tuple(int(x) for x in a), tuple(int(x) for x in b))
        seed = best_of_pool(system)
        found = taboo_search(system, seed, kernel_basis(system), SearchConfig(20, 5))
        assert system.is_feasible(found)
        assert (
            variation_of_information(found)
            <= variation_of_information(seed) + 1e-12
        )


def test_lower_bounds_pin_cells():
    lower = np.zeros((2, 3), dtype=np.int64)
    lower[:, 2] = (2, 1)  # pinned death column
    system = build_flow_system((5, 4), (3, 3, 3), lower=lower)
    for flow in seed_pool(system):
        assert system.is_feasible(flow)
        assert (flow[:, 2] == np.array([2, 1])).all()
    sols = enumerate_lattice(system, 10_000)
    for u in sols:
        assert (u[:, 2] == np.array([2, 1])).all()
    found = taboo_search(system, cfg=SearchConfig(10, 3), check_feasible=True)
    assert (found[:, 2] == np.array([2, 1])).all()


def test_materialize_flow_recounts_exactly():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k, l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n = int(rng.integers(max(k, l), 30))
        a = rng.multinomial(n, np.ones(k) / k)
        b = rng.multinomial(n, np.ones(l) / l)
        system = build_flow_system(tuple(int(x) for x in a), tuple(int(x) for x in b))
        flow = best_of_pool(system)
        groups = []
        at = 0
        for i in range(k):
            groups.append(list(range(at, at + int(a[i]))))
            at += int(a[i])
        moved = materialize_flow(flow, groups, rng)
        recount = np.zeros_like(flow)
        seen = set()
        for i in range(k):
            for j in range(l):
                recount[i, j] = len(moved[i][j])
                for nid in moved[i][j]:
                    assert nid in groups[i]
                    assert nid not in seen
                    seen.add(nid)
        assert np.array_equal(recount, flow)


def test_materialize_identity_flow_keeps_membership():
    flow = np.diag([3, 2])
    groups = [[10, 11, 12], [20, 21]]
    moved = materialize_flow(flow, groups, np.random.default_rng(0))
    assert sorted(moved[0][0]) == [10, 11, 12]
    assert sorted(moved[1][1]) == [20, 21]
    assert moved[0][1] == [] and moved[1][0] == []


def test_materialize_population_mismatch_is_bug_signal():
    with pytest.raises(AssertionError):
        materialize_flow(np.array([[2]]), [[1, 2, 3]], np.random.default_rng(0))


def test_sparsity_similarity_correlation():
    scipy_stats = pytest.importorskip("scipy.stats")
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    zeros, neg_vi = [], []
    for u in iter_lattice(system):
        zeros.append(int((u == 0).sum()))
        neg_vi.append(-variation_of_information(u))
    rho = scipy_stats.spearmanr(zeros, neg_vi).statistic
    assert rho > 0.3, f"sparsity/similarity Spearman correlation {rho}"
