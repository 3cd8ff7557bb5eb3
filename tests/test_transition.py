"""Flow systems, VI, enumeration, seed heuristics and the descent search."""

import math

import numpy as np
import pytest

from temponet import (
    ConfigurationError,
    LatticeOverflowError,
    build_flow_system,
    count_lattice,
    kernel_basis,
    materialize_flow,
    mi_greedy,
    seed_pool,
    taboo_search,
    variation_of_information,
)
from temponet.pipeline import plan_transition
from temponet.sequences import CommunitySpec
from temponet.transition import (
    _contrib,
    _jump_scorer,
    _log_table,
    _move_cells,
    max_chunk_greedy,
    northwest_sorted,
    proportional_fill,
    sorted_residual_greedy,
)

from oracles import (
    _cell_contrib,
    best_of_pool,
    brute_force_flow_count,
    enumerate_lattice,
    flow_equations,
    iter_lattice,
    random_feasible,
    reference_descent,
    reference_materialize_flow,
    reference_max_chunk_greedy,
    reference_mi_greedy,
    reference_proportional_fill,
    reference_sorted_residual_greedy,
    reference_taboo_search,
    reference_variation_of_information,
    vi_partitions,
    vi_reference,
)


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


@pytest.mark.parametrize("flow", [[[-1, 1]], [[-2]], [[0, -1], [1, 0]], [[3, -1]]])
def test_vi_rejects_negative_entries_whatever_their_sum(flow):
    for vi in (variation_of_information, reference_variation_of_information):
        with pytest.raises(ConfigurationError, match="non-negative"):
            vi(flow)


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
    a, b = flow_equations(system, reduced=True)
    assert a.shape == (5, 9) and b.shape == (5,)
    full_a, full_b = flow_equations(system, reduced=False)
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
    for sizes in (((10, 8, 6), (12, 10, 2)), ((5, 5), (4, 3, 3)), ((9,), (9,)), ((9,), (4, 5))):
        system = build_flow_system(*sizes)
        k, l = system.k, system.l
        basis = kernel_basis(system)
        assert basis.dtype == np.int64 and basis.shape == ((k - 1) * (l - 1), 2)
        # row-major order of (i, j)
        assert basis.tolist() == [[i, j] for i in range(k - 1) for j in range(l - 1)]
        a, _ = flow_equations(system, reduced=False)
        dense = []
        for i, j in basis.tolist():
            move = np.zeros((k, l), dtype=np.int64)
            move[i, j] = move[k - 1, l - 1] = 1
            move[i, l - 1] = move[k - 1, j] = -1
            dense.append(move.ravel())
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


def test_northwest_visits_ties_in_index_order():
    # rows by slack 5, 3, 3 visit rows 1, 0, 2; columns 4, 4, 3 visit 0, 1, 2
    system = build_flow_system((3, 5, 3), (4, 4, 3))
    assert northwest_sorted(system).tolist() == [[0, 3, 0], [4, 1, 0], [0, 0, 3]]


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
    found = taboo_search(system, seed, kernel_basis(system))
    assert np.array_equal(found, seed)


def test_taboo_matches_enumerated_optimum_small_space():
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    best = min(variation_of_information(u) for u in iter_lattice(system))
    found = taboo_search(system, best_of_pool(system), kernel_basis(system))
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
        found = taboo_search(system, seed, kernel_basis(system))
        assert system.is_feasible(found)
        assert (
            variation_of_information(found)
            <= variation_of_information(seed) + 1e-12
        )


def _transition_systems(rng, count):
    """Pipeline-style transitions with k, l <= 10: odd ones free, even ones
    with a death column pinned to a kill set, as the pipeline builds them."""
    for idx in range(count):
        k, l = int(rng.integers(2, 11)), int(rng.integers(2, 11))
        if idx % 2:
            n = int(rng.integers(max(k, l) + 1, 30 * k + 1))
            a = 1 + rng.multinomial(n - k, np.ones(k) / k)
            b = 1 + rng.multinomial(n - l, np.ones(l) / l)
            yield build_flow_system(tuple(int(x) for x in a), tuple(int(x) for x in b))
            continue
        sizes_t = CommunitySpec(tuple(int(x) for x in rng.integers(4, 31, k)))
        sizes_t1 = CommunitySpec(tuple(int(x) for x in rng.integers(4, 31, l)))
        n = sizes_t.node_count  # node ids 0..n-1, laid out community by community
        kills = rng.choice(n, size=int(rng.integers(1, n // 5 + 2)), replace=False)
        plan = plan_transition(sizes_t, sizes_t1, kills.tolist(), rng, alive_ids=range(n))
        lower = np.zeros((len(plan.sizes_from_augmented), len(plan.sizes_to_augmented)), np.int64)
        if plan.death_col is not None:
            bounds = np.cumsum(sizes_t.sizes)
            for nid in plan.kill_ids:
                lower[int(np.searchsorted(bounds, nid, side="right")), plan.death_col] += 1
        yield build_flow_system(plan.sizes_from_augmented, plan.sizes_to_augmented, lower=lower)


def _descent_cases(rng):
    """800 pipeline-style systems from their best pool flow, and 200
    equal-size systems from random vertices."""
    cases = [(system, best_of_pool(system)) for system in _transition_systems(rng, 800)]
    for _ in range(200):
        # equal sizes on each side make jumps tie in VI, which the
        # lexicographic rule breaks; random vertices as seeds move more often
        k, l, s = (int(x) for x in rng.integers(2, [5, 5, 7]))
        system = build_flow_system((s * l,) * k, (s * k,) * l)
        cases.append((system, random_feasible(system, rng)))
    return cases


def test_descent_matches_the_taboo_reference():
    # the visited set and the try thresholds of the taboo search never change
    # its flow: the descent returns the same flow after the same moves
    moved = 0
    for system, seed in _descent_cases(np.random.default_rng(4)):
        basis = kernel_basis(system)
        trace = []
        found = taboo_search(system, seed, basis, trace=trace)
        for thresholds in ((1, 1), (50, 10)):
            want, moves = reference_taboo_search(system, seed, basis, *thresholds)
            assert np.array_equal(found, want), (system.sizes_from, system.sizes_to, thresholds)
            assert trace[-1][0] == moves
        moved += trace[-1][0] > 0
    assert moved >= 1


def _churn_systems(rng, count):
    """Churn-sized transitions: 60 communities plus a birth row or death column."""
    for _ in range(count):
        a = [int(x) for x in rng.integers(8, 41, 60)]
        b = [int(x) for x in rng.integers(8, 41, 60)]
        gap = sum(a) - sum(b)
        if gap > 0:
            b.append(gap)
        elif gap < 0:
            a.append(-gap)
        yield build_flow_system(a, b)


def test_descent_matches_the_one_jump_reference():
    # the jumps are scored from the log tables all at once, and must give the
    # flow, the moves and every VI of the trace that scoring one jump at a
    # time with math.log gives
    rng = np.random.default_rng(5)
    cases = _descent_cases(rng)
    # churn-wide systems: random vertices and dense proportional fills move
    cases += [(system, random_feasible(system, rng)) for system in _churn_systems(rng, 30)]
    cases += [(system, proportional_fill(system)) for system in _churn_systems(rng, 2)]
    for sizes in (((9,), (2, 3, 4)), ((2, 3, 4), (9,)), ((5,), (5,))):
        system = build_flow_system(*sizes)
        cases.append((system, random_feasible(system, rng)))
    wide_moves = 0
    for system, seed in cases:
        basis = kernel_basis(system)
        trace, want_trace = [], []
        found = taboo_search(system, seed, basis, trace=trace)
        want = reference_descent(system, seed, basis, trace=want_trace)
        assert np.array_equal(found, want), (system.sizes_from, system.sizes_to)
        assert trace == want_trace
        wide_moves += trace[-1][0] if system.k > 50 else 0
    assert wide_moves >= 10


def _scalar_jump_scores(system, u, basis, vi):
    """Each jump with a step of at least 1 as (2 * move + (1 for -), step,
    VI reached), scored with ``math.log`` per cell as the one-jump reference
    scores it."""
    n, r, c = float(system.node_count), system.k - 1, system.l - 1
    out = []
    for b, (i, j) in enumerate(basis.tolist()):
        cells = ((i, j), (i, c), (r, j), (r, c))
        slack = [int(u[cell] - system.lower[cell]) for cell in cells]
        jumps = ((1, min(slack[1], slack[2])), (-1, min(slack[0], slack[3])))
        for minus, (sign, step) in enumerate(jumps):
            if step < 1:
                continue
            dvi = 0.0
            for (ci, cj), dd in zip(cells, (sign * step, -sign * step, -sign * step, sign * step)):
                row, col = float(system.sizes_from[ci]), float(system.sizes_to[cj])
                old = float(u[ci, cj])
                dvi += _cell_contrib(old + dd, row, col, n) - _cell_contrib(old, row, col, n)
            out.append((2 * b + minus, step, vi + dvi))
    return out


def test_jump_scores_equal_the_scalar_sums():
    # every jump's VI, bit for bit, from random vertices and pool flows of
    # pipeline-style and churn-wide systems
    rng = np.random.default_rng(6)
    systems = list(_transition_systems(rng, 200)) + list(_churn_systems(rng, 2))
    for size in (3, 5):
        systems.append(build_flow_system((size * 4,) * 3, (size * 3,) * 4))
    for system in systems:
        basis = kernel_basis(system)
        score = _jump_scorer(system, _move_cells(system, basis))
        for u in (random_feasible(system, rng), proportional_fill(system), mi_greedy(system)):
            vi = variation_of_information(u)
            jumps, sizes, vis = score(u, vi)
            got = list(zip(jumps.tolist(), sizes.tolist(), vis.tolist()))
            assert got == _scalar_jump_scores(system, u, basis, vi)


def test_table_contributions_equal_the_scalar_formula():
    # every value of every cell whose row and column sizes are at most 60,
    # then random sizes up to 1,000, at two node counts each
    pairs = [(r, c) for r in range(61) for c in range(61)]
    rng = np.random.default_rng(12)
    pairs += [tuple(int(x) for x in rng.integers(1, 1001, 2)) for _ in range(300)]
    for r, c in pairs:
        v = np.arange(min(r, c) + 1)
        for n in (float(max(r, c, 1)), float(r + c + 7)):
            got = _contrib(v, n, _log_table(r)[v], _log_table(c)[v]).tolist()
            want = [_cell_contrib(float(x), float(r), float(c), n) for x in v.tolist()]
            assert got == want, (r, c, n)


def test_max_chunk_matches_the_cell_scan_reference():
    rng = np.random.default_rng(8)
    systems = list(_transition_systems(rng, 400))
    systems += _churn_systems(rng, 10)
    for system in systems:
        assert np.array_equal(max_chunk_greedy(system), reference_max_chunk_greedy(system))


@pytest.mark.parametrize(
    "heuristic, reference",
    [
        (mi_greedy, reference_mi_greedy),
        (sorted_residual_greedy, reference_sorted_residual_greedy),
        (proportional_fill, reference_proportional_fill),
    ],
    ids=["mi_greedy", "sorted_residual", "proportional_fill"],
)
def test_seed_heuristic_matches_its_reference(heuristic, reference):
    rng = np.random.default_rng(9)
    systems = list(_transition_systems(rng, 800))
    for _ in range(200):
        # equal sizes on each side make many cells tie in VI increment and in
        # fractional part, which the row-major order breaks
        k, l, s = (int(x) for x in rng.integers(1, [8, 8, 7]))
        systems.append(build_flow_system((s * l,) * k, (s * k,) * l))
    systems += _churn_systems(rng, 10)
    full = build_flow_system((4, 7, 3), (6, 2, 6))
    systems.append(build_flow_system((4, 7, 3), (6, 2, 6), lower=random_feasible(full, rng)))
    systems += [
        build_flow_system((9,), (2, 3, 4)),
        build_flow_system((2, 3, 4), (9,)),
        build_flow_system((5,), (5,)),
    ]
    for system in systems:
        found = heuristic(system)
        assert np.array_equal(found, reference(system)), (system.sizes_from, system.sizes_to)
        assert system.is_feasible(found)


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
    found = taboo_search(system, best_of_pool(system), kernel_basis(system))
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


@pytest.mark.parametrize(
    "flow, groups",
    [([[3, -1]], [[10, 11]]), ([[-1, 3]], [[10, 11]]), ([[2, 0], [-1, 2]], [[10, 11], [20]])],
)
def test_materialize_refuses_negative_flow_before_any_draw(flow, groups):
    # every row sums to its group's population, so only the sign check
    # stands between the flow and its draws
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError, match="flow entries must be non-negative"):
        materialize_flow(flow, groups, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def _vi_flows(rng):
    """Over 2,000 flows: every seed and a random vertex of pipeline-style
    systems (every other one with a pinned death column), churn-size pools,
    1x1, 1xl and kx1 flows, flows with zero rows and columns, and empty or
    all-zero ones."""
    flows = []
    for system in _transition_systems(rng, 300):
        flows += seed_pool(system)
        flows.append(random_feasible(system, rng))
    for system in _churn_systems(rng, 4):
        flows += seed_pool(system)
    for case in range(300):
        k, l = (int(x) for x in rng.integers(1, 12, 2))
        k, l = ((1, 1), (1, l), (k, 1), (k, l))[case % 4]
        u = rng.integers(0, 30, (k, l)) * (rng.random((k, l)) < 0.6)
        if case % 3 == 0:
            u[int(rng.integers(k)), :] = 0
            u[:, int(rng.integers(l))] = 0
        flows.append(u)
    flows += [np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 3), np.int64), [[7]], [[0, 5]]]
    return flows


def test_vi_matches_the_mask_reference_bit_for_bit():
    flows = _vi_flows(np.random.default_rng(21))
    assert len(flows) >= 2000
    for u in flows:
        got, want = variation_of_information(u), reference_variation_of_information(u)
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), u


def _materialize_cases(rng):
    """Small flows with empty source rows, 1x1, 1xl and kx1 flows, and
    churn-size flows."""
    shapes = [(1, 1), (1, 5), (6, 1), (3, 3)]
    shapes += [tuple(int(x) for x in rng.integers(1, 12, 2)) for _ in range(300)]
    for k, l in shapes:
        u = rng.integers(0, 6, (k, l)) * (rng.random((k, l)) < 0.5)
        u[rng.random(k) < 0.2] = 0
        yield u
    for system in _churn_systems(rng, 3):
        yield sorted_residual_greedy(system)


def test_materialize_matches_the_cell_reference():
    # the same chunks, and the generator left in the same state: every
    # group draws its permutation, also one whose row has a single target
    gen = np.random.default_rng(22)
    empty = 0
    for flow in _materialize_cases(gen):
        sums = flow.sum(axis=1).tolist()
        ids = gen.choice(10 * sum(sums) + 10, size=sum(sums), replace=False).tolist()
        ends = np.cumsum(sums).tolist()
        groups = [ids[a:b] for a, b in zip([0] + ends, ends)]
        seed = int(gen.integers(2**32))
        lib, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert materialize_flow(flow, groups, lib) == reference_materialize_flow(flow, groups, ref)
        assert lib.bit_generator.state == ref.bit_generator.state
        empty += 0 in sums
    assert empty >= 50
    for flow, groups in ((np.array([[2]]), [[1, 2, 3]]), (np.array([[1], [1]]), [[4]])):
        errors = []
        for materialize in (materialize_flow, reference_materialize_flow):
            with pytest.raises(AssertionError) as exc:
                materialize(flow, groups, np.random.default_rng(0))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def test_sparsity_similarity_correlation():
    scipy_stats = pytest.importorskip("scipy.stats")
    system = build_flow_system((10, 8, 6), (12, 10, 2))
    zeros, neg_vi = [], []
    for u in iter_lattice(system):
        zeros.append(int((u == 0).sum()))
        neg_vi.append(-variation_of_information(u))
    rho = scipy_stats.spearmanr(zeros, neg_vi).statistic
    assert rho > 0.3, f"sparsity/similarity Spearman correlation {rho}"
