"""Erdos-Gallai tests against exhaustive realizability search."""

import itertools
from collections import Counter

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    ConfigurationError,
    DegreeSpec,
    FailedCondition,
    GraphabilityError,
    ShapeParams,
    WiringError,
    assemble_snapshot,
    assign_nodes,
    assignment_feasible,
    check_graphable,
    erdos_gallai,
    inter_graphable,
    wire_inter,
)

from oracles import (
    node_columns,
    realizable_clustered,
    realizable_degree_sequence,
    reference_assignment_feasible,
    reference_check_graphable,
    reference_erdos_gallai,
    realizable_with_parts,
)


def test_erdos_gallai_basics():
    assert erdos_gallai((3, 3, 3, 3))  # K4
    assert not erdos_gallai((3, 1, 1))  # odd sum
    assert erdos_gallai((4, 4, 3, 3, 4, 3, 3, 2, 2, 2))  # 10 nodes, 15 links
    assert erdos_gallai(())
    assert erdos_gallai((0, 0, 0))
    assert not erdos_gallai((4, 4, 1, 1, 1, 1))  # even sum but over-concentrated
    assert not erdos_gallai((5, 1))


def test_erdos_gallai_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        seq = [int(x) for x in rng.integers(0, 6, n)]
        base = erdos_gallai(seq)
        perm = [seq[i] for i in rng.permutation(n)]
        assert erdos_gallai(perm) == base


def test_erdos_gallai_matches_exhaustive_search_small():
    # every multiset of length <= 6 with entries <= 4 (the length-7 sweep
    # lives in the acceptance suite)
    for n in range(1, 7):
        for seq in itertools.combinations_with_replacement(range(5), n):
            assert erdos_gallai(seq) == realizable_degree_sequence(seq), seq


def test_erdos_gallai_equals_the_loop_reference():
    # random sequences up to n = 2,000, with zeros, tight low-degree tails,
    # and a largest degree that can reach n
    gen = np.random.default_rng(71)
    answers = set()
    for trial in range(1500):
        n = int(gen.integers(0, 40)) if trial % 10 else int(gen.integers(40, 2001))
        seq = gen.integers(0, int(gen.integers(1, n + 2)), n).tolist()
        if trial % 3 == 0:
            seq = [min(d, 2) for d in seq]
        if trial % 5 == 0 and n:
            seq[0] = n + int(gen.integers(0, 2))
        answer = erdos_gallai(seq)
        assert answer is reference_erdos_gallai(seq), seq
        answers.add(answer)
    assert answers == {True, False}
    assert erdos_gallai([0] * 7) is reference_erdos_gallai([0] * 7) is True
    for seq in ([3, 1, 1, 1], [4, 1, 1, 1], [2, 2]):
        assert erdos_gallai(seq) is reference_erdos_gallai(seq), seq
    with pytest.raises(ConfigurationError):
        erdos_gallai([2, -1, 1])


def test_edge_removal_keeps_strictly_graphable_sequences_graphable():
    # removing one edge slot (decrementing two entries by one) can lower the
    # right-hand side of the inequality by two at a fixed left-hand side, so
    # a margin of one is NOT enough; a margin of two at every k is.  The
    # enumeration below verifies the margin-two version and pins the
    # margin-one counterexample.
    assert _min_margin([4, 2, 2, 2, 1, 1]) == 1
    assert erdos_gallai([4, 2, 2, 2, 1, 1])
    assert not erdos_gallai([4, 2, 2, 2, 0, 0])  # margin-one claim fails here

    checked = 0
    for n in range(2, 7):
        for seq in itertools.combinations_with_replacement(range(1, 5), n):
            s = sorted(seq, reverse=True)
            if sum(s) % 2 or not erdos_gallai(s):
                continue
            if _min_margin(s) < 2:
                continue
            for i, j in itertools.combinations(range(n), 2):
                reduced = list(s)
                reduced[i] -= 1
                reduced[j] -= 1
                assert erdos_gallai(reduced), (s, i, j)
                checked += 1
    assert checked > 50  # the property was exercised, not vacuous


def _min_margin(sorted_desc):
    n = len(sorted_desc)
    margin = None
    for k in range(1, n + 1):
        lhs = sum(sorted_desc[:k])
        rhs = k * (k - 1) + sum(min(d, k) for d in sorted_desc[k:])
        margin = rhs - lhs if margin is None else min(margin, rhs - lhs)
    return margin


def test_inter_graphable_boundaries():
    assert inter_graphable((3, 2, 1))  # equality boundary
    assert not inter_graphable((5, 1, 1))
    assert inter_graphable((6, 4, 2))  # f1 = f2 + f3
    assert inter_graphable(())
    assert inter_graphable((0, 0))
    assert not inter_graphable((1, 1, 1))  # odd sum


def test_assignment_feasible_examples():
    assert assignment_feasible((2, 2), (1, 1, 1, 1))
    assert not assignment_feasible((2, 2), (3, 1, 1, 1))
    assert not assignment_feasible((3,), (3, 0, 0))  # e == size


def test_assignment_feasible_matches_exhaustive():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 5)) for _ in range(k)]
        n = sum(sizes)
        intra = [int(rng.integers(0, 5)) for _ in range(n)]
        got = assignment_feasible(sizes, intra)
        want = _exhaustive_assignment(sizes, intra)
        assert got == want, (sizes, intra)


def _exhaustive_assignment(sizes, intra) -> bool:
    n = len(intra)
    k = len(sizes)
    caps = list(sizes)

    def place(i):
        if i == n:
            return True
        for c in range(k):
            if caps[c] > 0 and intra[i] <= sizes[c] - 1:
                caps[c] -= 1
                if place(i + 1):
                    caps[c] += 1
                    return True
                caps[c] += 1
        return False

    return place(0)


def _capacity_specs(rng, count):
    """Random (sizes, intra) with many singleton communities and zero intra
    degrees, and intra degrees up to one above the largest room."""
    for _ in range(count):
        k = int(rng.integers(1, 6))
        sizes = rng.integers(1, 7, k)
        sizes[rng.random(k) < 0.3] = 1
        n = int(sizes.sum())
        intra = rng.integers(0, sizes.max() + 1, n)
        intra[rng.random(n) < 0.3] = 0
        yield sizes.tolist(), intra.tolist()


def test_capacity_count_equals_the_greedy_reference():
    rng = np.random.default_rng(3)
    accepted = 0
    for sizes, intra in _capacity_specs(rng, 20_000):
        got = assignment_feasible(sizes, intra)
        assert got == reference_assignment_feasible(sizes, intra), (sizes, intra)
        accepted += got
    assert 1_000 <= accepted <= 19_000
    assert assignment_feasible((1, 1, 1), (0, 0, 0))
    assert not assignment_feasible((1, 1, 1), (0, 0, 1))
    for sizes, intra in (((2, 2), (1, 1, 1)), ((1,), (0, 0)), ((), (0,))):
        with pytest.raises(ConfigurationError, match="node count"):
            assignment_feasible(sizes, intra)


def test_bootstrap_assignment_never_runs_dry_on_a_gated_spec():
    # placing nodes in non-increasing intra order, the bootstrap pass runs out
    # of community capacity exactly on the specs the capacity count rejects
    rng = np.random.default_rng(4)
    accepted = 0
    for sizes, intra in _capacity_specs(rng, 20_000):
        total = [e + int(f) for e, f in zip(intra, rng.integers(1, 4, len(intra)))]
        spec = DegreeSpec(tuple(total), tuple(intra))
        feasible = assignment_feasible(sizes, intra)
        accepted += feasible
        if feasible:
            assign_nodes(CommunitySpec(tuple(sizes)), spec, rng)
        else:
            with pytest.raises(GraphabilityError, match="ran out of community capacity"):
                assign_nodes(CommunitySpec(tuple(sizes)), spec, rng)
    assert 1_000 <= accepted <= 19_000


def test_check_graphable_worked_example():
    sizes = CommunitySpec((4, 4, 2))
    spec = DegreeSpec((4, 4, 4, 3, 3, 3, 3, 2, 2, 2), (3, 3, 3, 2, 2, 2, 2, 1, 1, 1))
    # per-community intra sums must be even: {3,3,2,2}, {3,2,2,1}, {1,1}
    membership = [0, 0, 1, 0, 0, 1, 1, 2, 2, 1]
    report = check_graphable(sizes, spec, membership)
    assert report.ok
    assert check_graphable(sizes, spec).ok  # pre-assignment necessary conditions


def test_check_graphable_pigeonhole_failure():
    sizes = CommunitySpec((3,))
    spec = DegreeSpec((3, 1, 2), (3, 1, 2))
    report = check_graphable(sizes, spec)
    assert not report.ok
    assert report.failing_condition is FailedCondition.ASSIGNMENT_INFEASIBLE


def test_check_graphable_condition_labels():
    sizes = CommunitySpec((2, 2))
    # odd intra sum inside community 0
    report = check_graphable(
        sizes, DegreeSpec((2, 2, 2, 2), (1, 0, 1, 0)), [0, 0, 1, 1]
    )
    assert report.failing_condition is FailedCondition.INTRA_PARITY
    assert report.failing_community == 0
    # inter aggregate too concentrated
    report = check_graphable(
        sizes, DegreeSpec((3, 3, 1, 1), (1, 1, 1, 1)), [0, 0, 1, 1]
    )
    assert report.failing_condition is FailedCondition.INTER_MAX
    report = check_graphable(sizes, DegreeSpec((2, 2, 2, 1), (1, 1, 1, 1)), [0, 0, 1, 1])
    assert report.failing_condition is FailedCondition.INTER_PARITY


def test_inter_degree_above_the_outside_population_is_rejected():
    # the aggregates (12, 12) pass the max condition, but the singleton's
    # node needs 12 distinct partners and only 10 nodes lie outside it
    sizes = CommunitySpec((1, 10))
    inter = (12, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)
    intra = (0,) + (2,) * 10
    spec = DegreeSpec(tuple(e + f for e, f in zip(intra, inter)), intra)
    membership = [0] + [1] * 10
    report = check_graphable(sizes, spec, membership)
    assert report.failing_condition is FailedCondition.INTER_NODE_MAX
    assert report.failing_community == 0
    assert not realizable_clustered(sizes.sizes, membership, intra, spec.inter)
    # the intra degrees force that membership on every assignment pass
    assert check_graphable(sizes, spec).ok
    with pytest.raises(GraphabilityError, match="inter_node_max"):
        assemble_snapshot(0, sizes, spec, np.random.default_rng(0))


def test_lone_community_with_inter_stubs_is_refused_before_membership():
    sizes = CommunitySpec((4,))
    spec = DegreeSpec((3, 3, 2, 2), (2, 2, 2, 2))
    for check in (check_graphable, reference_check_graphable):
        report = check(sizes, spec)
        assert not report.ok
        assert report.failing_condition is FailedCondition.INTER_LONE_COMMUNITY
        assert report.failing_community == 0
        assert report.reason == (
            "inter_lone_community: 2 inter stubs in a single community:"
            " no other community exists to take them"
        )
    # the three earlier conditions keep their reports
    odd_inter = check_graphable(sizes, DegreeSpec((3, 2, 2, 2), (2, 2, 2, 2)))
    assert odd_inter.failing_condition is FailedCondition.INTER_PARITY
    too_high = check_graphable(sizes, DegreeSpec((5, 4, 2, 1), (4, 3, 2, 1)))
    assert too_high.failing_condition is FailedCondition.ASSIGNMENT_INFEASIBLE
    # no inter stubs, or a second community to take them, pass
    assert check_graphable(sizes, DegreeSpec((2, 2, 2, 2), (2, 2, 2, 2))).ok
    assert check_graphable(CommunitySpec((2, 2)), DegreeSpec((2, 2, 1, 1), (1, 1, 1, 1))).ok


def test_lone_community_refusals_are_unrealizable():
    # every one-community spec of up to 4 nodes that the rule refuses has no
    # realization: with its only membership, no inter stub finds a partner
    refused = 0
    for size in range(1, 5):
        for intra in itertools.product(range(size), repeat=size):
            for inter in itertools.product(range(3), repeat=size):
                total = tuple(e + f for e, f in zip(intra, inter))
                if 0 in total:  # a spec has no isolated nodes
                    continue
                spec = DegreeSpec(total, intra)
                report = check_graphable(CommunitySpec((size,)), spec)
                if report.failing_condition is FailedCondition.INTER_LONE_COMMUNITY:
                    refused += 1
                    assert not realizable_clustered((size,), [0] * size, intra, inter)
    assert refused > 1_000


def _two_part_inter(gen, membership):
    """Inter degrees for the slots of two communities, 0 and 1: each at
    least 1 and at most the other community's size, evened out one stub at
    a time until both communities hold the same sum."""
    sides = [[i for i, c in enumerate(membership) if c == x] for x in (0, 1)]
    inter = [0] * len(membership)
    for side, other in (sides, sides[::-1]):
        for i in side:
            inter[i] = int(gen.integers(1, len(other) + 1))
    while True:
        sums = [sum(inter[i] for i in side) for side in sides]
        if sums[0] == sums[1]:
            return inter
        small, big = sides if sums[0] < sums[1] else sides[::-1]
        i = small[int(gen.integers(len(small)))]
        if inter[i] < len(big):
            inter[i] += 1
        else:
            j = big[int(gen.integers(len(big)))]
            inter[j] -= inter[j] > 1


def test_a_bipartite_inter_phase_that_no_graph_realizes_is_refused():
    # every earlier condition holds: equal aggregates of 20, and no node
    # needs more partners than the other community has.  The two largest of
    # community 0 (5 and 5) need 10 links to community 1, whose degrees
    # (7, 6, 4, 2, 1) can give two nodes at most 2 + 2 + 2 + 2 + 1 = 9.
    sizes, community = CommunitySpec((7, 5)), [0] * 7 + [1] * 5
    f = (5, 5, 4, 2, 2, 1, 1, 7, 6, 4, 2, 1)
    spec = DegreeSpec(f, (0,) * 12)
    assert not realizable_with_parts(f, community)
    for check in (check_graphable, reference_check_graphable):
        report = check(sizes, spec, community)
        assert report.failing_condition is FailedCondition.INTER_GALE_RYSER
        assert report.failing_community == 0
        assert report.reason == (
            "inter_gale_ryser: community 0: inter degrees fail the Gale-Ryser condition"
            " against community 1"
        )
    # what the gate used to let through ends in the wiring's repair bound
    nodes = [(i, f[i], f[i], community[i]) for i in range(12)]
    with pytest.raises(WiringError, match=r"repair budget \(600\) exhausted"):
        wire_inter(*node_columns(nodes), ShapeParams(), np.random.default_rng(0))


def test_the_gate_decides_two_part_inter_phases_like_exhaustive_search():
    # two communities of 1-6 nodes with no intra stubs: the gate's answer
    # and the exhaustive search's agree on every phase
    gen = np.random.default_rng(101)
    outcomes = Counter()
    for _ in range(1500):
        sizes = [int(x) for x in gen.integers(1, 7, 2)]
        membership = gen.permutation(np.repeat([0, 1], sizes)).tolist()
        f = _two_part_inter(gen, membership)
        spec = DegreeSpec(f, (0,) * len(f))
        report = check_graphable(CommunitySpec(tuple(sizes)), spec, membership)
        assert report.ok == realizable_with_parts(f, membership), (sizes, membership, f)
        outcomes[report.failing_condition] += 1
    assert outcomes[None] >= 500 and outcomes[FailedCondition.INTER_GALE_RYSER] >= 100, outcomes


def test_check_graphable_validation_errors():
    with pytest.raises(ConfigurationError):
        check_graphable(CommunitySpec((2,)), DegreeSpec((1, 1, 2), (0, 0, 0)))
    with pytest.raises(ConfigurationError):
        check_graphable(
            CommunitySpec((2, 1)), DegreeSpec((1, 1, 2), (0, 0, 0)), [0, 0, 0]
        )


def test_check_graphable_membership_agrees_with_realizability():
    # random small clustered specs in the generator's operating envelope:
    # accepted specs must be realizable per exhaustive search and vice versa
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(150):
        k = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 5)) for _ in range(k)]
        n = sum(sizes)
        membership = []
        for c, s in enumerate(sizes):
            membership.extend([c] * s)
        intra = [int(rng.integers(0, min(4, sizes[membership[i]] - 1) + 1)) for i in range(n)]
        inter = [int(rng.integers(0, min(3, n - sizes[membership[i]]) + 1)) for i in range(n)]
        total = [max(1, e + f) for e, f in zip(intra, inter)]
        spec = DegreeSpec(tuple(total), tuple(intra))
        report = check_graphable(CommunitySpec(tuple(sizes)), spec, membership)
        want = realizable_clustered(sizes, membership, intra, spec.inter)
        if report.ok == want:
            agreements += 1
    # Eq-style aggregate conditions are necessary-and-sufficient in this
    # envelope except for rare capacity-starved corners; those are covered
    # (and excluded) by the acceptance-suite generator
    assert agreements >= 140


def _random_gate_case(gen, trial):
    """Sizes, a degree spec and a membership for the gate of an assigned snapshot.

    Sizes run from 1 (singletons) to 8 over 1-6 communities, and over up to
    200 in every 20th case.  Intra degrees stay below a random cap and the
    room, with one slot at or past its room in a fifth of the cases; most
    cases make every community's intra sum even and the inter sum even, so
    that the later conditions are reached.  Every fifth case has two
    communities whose inter degrees ``_two_part_inter`` draws, so that the
    Gale-Ryser condition is reached.  A few cases break the membership: an
    index out of range, or one slot moved to another community.
    """
    two_part = trial % 5 == 2
    if two_part:
        k = 2
    else:
        k = int(gen.integers(1, 201)) if trial % 20 == 0 else int(gen.integers(1, 7))
    sizes = [int(s) for s in gen.integers(1, 9, k)]
    n = sum(sizes)
    membership = gen.permutation(np.repeat(np.arange(k), sizes)).tolist()
    rooms = [sizes[c] - 1 for c in membership]
    cap = int(gen.integers(1, 9))
    intra = [min(int(gen.integers(0, cap + 1)), r) for r in rooms]
    if gen.random() < 0.2:
        i = int(gen.integers(n))
        intra[i] = rooms[i] + int(gen.integers(0, 3))
    if gen.random() < 0.7:
        # an odd community sum loses one from its last positive degree
        last = {c: slot for slot, c in enumerate(membership) if intra[slot]}
        sums = np.bincount(membership, weights=intra, minlength=k)
        for c, slot in last.items():
            if int(sums[c]) % 2:
                intra[slot] -= 1
    outside = [n - sizes[c] for c in membership]
    fcap = int(gen.integers(1, 12))
    if two_part:
        inter = _two_part_inter(gen, membership)
    else:
        inter = [int(gen.integers(0, min(fcap, o) + 1)) for o in outside]
        if gen.random() < 0.15:
            i = int(gen.integers(n))
            inter[i] = outside[i] + int(gen.integers(1, 3))
        if sum(inter) % 2 and gen.random() < 0.7:
            inter[int(gen.integers(n))] += 1
    total = [max(1, e + f) for e, f in zip(intra, inter)]
    fault = gen.random()
    if fault < 0.02:
        membership[int(gen.integers(n))] = (-1, k)[int(gen.integers(2))]
    elif fault < 0.04 and k > 1:
        i = int(gen.integers(n))
        membership[i] = (membership[i] + int(gen.integers(1, k))) % k
    return CommunitySpec(tuple(sizes)), DegreeSpec(tuple(total), tuple(intra)), membership


def test_check_graphable_equals_the_per_community_reference():
    # whole reports, or the ConfigurationError text, for every condition and
    # both membership errors, with singletons, degrees at and past the room,
    # and up to 200 communities
    gen = np.random.default_rng(4099)
    outcomes = Counter()
    widest = Counter()
    for trial in range(20_000):
        sizes, spec, membership = _random_gate_case(gen, trial)
        results = []
        for check in (check_graphable, reference_check_graphable):
            try:
                results.append(check(sizes, spec, membership))
            except ConfigurationError as exc:
                results.append(str(exc))
        new, reference = results
        assert new == reference, trial
        if isinstance(new, str):
            kind = "out of range" if "out of range" in new else "count"
        else:
            kind = new.failing_condition.value if new.failing_condition else "ok"
        outcomes[kind] += 1
        widest[kind] = max(widest[kind], len(sizes))
    # the lone-community rule is checked only before a membership exists
    kinds = {c.value for c in FailedCondition} - {FailedCondition.INTER_LONE_COMMUNITY.value}
    kinds |= {"ok", "out of range", "count"}
    assert set(outcomes) == kinds, outcomes
    assert min(outcomes.values()) >= 100, outcomes
    assert min(widest[kind] for kind in ("ok", "intra_erdos_gallai", "inter_parity")) > 150, widest
