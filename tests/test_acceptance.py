"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Criterion 2 enumerates a 16.8M-point lattice and is opt-in:
``pytest --runslow``.
"""

import itertools
import os
import time

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    DegreeSpec,
    GraphabilityError,
    RunConfig,
    SamplerConfig,
    ShapeParams,
    assemble_snapshot,
    build_flow_system,
    check_graphable,
    count_lattice,
    erdos_gallai,
    fix_parity,
    kernel_basis,
    modularity,
    read_temporal_csv,
    run,
    sample_degrees,
    split_degrees,
    taboo_search,
    variation_of_information,
)
from temponet.metrics import assortativity_details

from oracles import (
    best_of_pool,
    enumerate_lattice,
    iter_lattice,
    realizable_clustered,
    realizable_degree_sequence,
    vi_partitions,
)


def _report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_acceptance_1_lattice_count_reproduction():
    cases = [
        ((20, 16, 12), (24, 13, 11), 6460),
        ((16, 16, 16), (16, 16, 16), 11781),
        ((10, 8, 6), (12, 10, 2), 279),
    ]
    start = time.time()
    for sizes_from, sizes_to, want in cases:
        system = build_flow_system(sizes_from, sizes_to)
        assert count_lattice(system) == want
        assert len(enumerate_lattice(system, want + 1)) == want
    elapsed = time.time() - start
    assert elapsed < 3 * 1.0, f"enumeration took {elapsed:.2f}s"
    _report(1, f"6460 / 11781 / 279 lattice points reproduced exactly in {elapsed:.2f}s")


@pytest.mark.slow
def test_acceptance_2_large_lattice_count():
    system = build_flow_system((13, 13, 12, 10), (15, 11, 11, 11))
    start = time.time()
    count = count_lattice(system)
    elapsed = time.time() - start
    assert count == 16_799_002
    _report(2, f"16,799,002 lattice points reproduced exactly in {elapsed:.1f}s")


@pytest.mark.slow
def test_slow_taboo_reaches_optimum_of_large_space():
    # sweep all 16.8M solutions for the global minimum VI and compare with
    # the search
    import math

    system = build_flow_system((13, 13, 12, 10), (15, 11, 11, 11))
    n = float(system.node_count)
    log = math.log
    rows = [float(s) for s in system.sizes_from]
    cols = [float(s) for s in system.sizes_to]

    def quick_vi(u):
        total = 0.0
        for i in range(4):
            row = u[i]
            for j in range(4):
                x = row[j]
                if x:
                    total -= (x / n) * (log(x / rows[i]) + log(x / cols[j]))
        return total

    start = time.time()
    best = min(quick_vi(u.tolist()) for u in iter_lattice(system))
    sweep_time = time.time() - start
    found = taboo_search(system, best_of_pool(system), kernel_basis(system))
    got = variation_of_information(found)
    assert got <= best + 1e-9, (got, best)
    _report(
        "2b",
        f"taboo search matched the 16.8M-point global optimum {best:.6f}"
        f" (sweep {sweep_time:.0f}s)",
    )


def test_acceptance_3_heuristic_optimality():
    rng = np.random.default_rng(2024)
    instances = 0
    optimal = 0
    while instances < 100:
        k = int(rng.integers(2, 5))
        l = int(rng.integers(2, 5))
        n = int(rng.integers(max(k, l) + 1, 61))
        a = 1 + rng.multinomial(n - k, np.ones(k) / k)
        b = 1 + rng.multinomial(n - l, np.ones(l) / l)
        system = build_flow_system(tuple(int(x) for x in a), tuple(int(x) for x in b))
        try:
            count_lattice(system, cap=100_000)
        except Exception:
            continue
        best_enum = min(variation_of_information(u) for u in iter_lattice(system))
        seed = best_of_pool(system)
        found = taboo_search(system, seed, kernel_basis(system))
        got = variation_of_information(found)
        assert got <= variation_of_information(seed) + 1e-12, "worse than best-of-pool"
        instances += 1
        if got <= best_enum + 1e-9:
            optimal += 1
    assert optimal >= 90, f"only {optimal}/100 instances reached the enumerated optimum"
    _report(3, f"taboo search matched the enumerated optimum on {optimal}/100 instances")


def test_acceptance_4_degree_exactness():
    rng = np.random.default_rng(404)
    produced = 0
    while produced < 1000:
        k = int(rng.integers(2, 9))
        sizes = CommunitySpec(tuple(int(rng.integers(5, 64)) for _ in range(k)))
        if sizes.node_count > 500:
            continue
        total = sample_degrees(SamplerConfig("uniform", 2, 10), sizes.node_count, rng)
        spec = split_degrees(
            total, float(rng.uniform(0.4, 0.8)), "bernoulli", "stochastic", rng
        )
        spec = fix_parity(spec, rng)
        if not check_graphable(sizes, spec).ok:
            continue
        try:
            snap = assemble_snapshot(0, sizes, spec, rng)
        except GraphabilityError:
            continue  # membership-dependent condition failed: not a graphable draw
        snap.validate()  # exact (d, e, f) per node, no self-loops, no multi-edges
        nodes = snap.nodes
        assert sorted(zip(
            (nodes[i].degree for i in sorted(nodes)),
            (nodes[i].intra_degree for i in sorted(nodes)),
        )) == sorted(zip(spec.total, spec.intra))
        produced += 1
    _report(4, "1000 random graphable specs wired with exact degrees and simple graphs")


def test_acceptance_5_graphability_oracle_agreement():
    # every intra multiset of length <= 7 with entries <= 4 against the
    # exhaustive adjacency search
    swept = 0
    for n in range(1, 8):
        for seq in itertools.combinations_with_replacement(range(5), n):
            assert erdos_gallai(seq) == realizable_degree_sequence(seq), seq
            swept += 1
    # 1000 random small clustered specs with memberships, against exhaustive
    # clustered realizability
    rng = np.random.default_rng(55)
    accepted = 0
    for _ in range(1000):
        k = int(rng.integers(2, 4))
        sizes = [int(rng.integers(3, 6)) for _ in range(k)]
        n = sum(sizes)
        membership = []
        for c, s in enumerate(sizes):
            membership.extend([c] * s)
        intra = [
            int(rng.integers(0, min(4, sizes[membership[i]] - 1) + 1)) for i in range(n)
        ]
        if rng.random() < 0.9:
            for c in range(k):
                idx = [i for i in range(n) if membership[i] == c]
                if sum(intra[i] for i in idx) % 2:
                    j = idx[int(rng.integers(len(idx)))]
                    cap = sizes[c] - 1
                    intra[j] += 1 if intra[j] + 1 <= cap else -1
        inter = [
            int(rng.integers(1, max(2, (n - sizes[membership[i]]) // 2) + 1))
            for i in range(n)
        ]
        if sum(inter) % 2:
            j = int(rng.integers(n))
            cap = max(1, (n - sizes[membership[j]]) // 2)
            inter[j] += 1 if inter[j] + 1 <= cap else -1
        total = [max(1, e + f) for e, f in zip(intra, inter)]
        spec = DegreeSpec(tuple(total), tuple(intra))
        report = check_graphable(CommunitySpec(tuple(sizes)), spec, membership)
        want = realizable_clustered(sizes, membership, intra, spec.inter)
        assert report.ok == want, (sizes, membership, intra, inter)
        accepted += report.ok
    assert accepted > 50, "generator produced too few graphable instances"
    _report(
        5,
        f"{swept} exhaustive sequences and 1000 clustered specs ({accepted} graphable)"
        " agree with the adjacency-search oracle",
    )


def test_acceptance_6_vi_metric_axioms():
    rng = np.random.default_rng(66)
    slack = 1e-9
    for _ in range(1000):
        n = int(rng.integers(2, 51))

        def part():
            labels = rng.integers(0, int(rng.integers(1, 7)), n)
            return [set(np.flatnonzero(labels == c)) for c in np.unique(labels)]

        x, y, z = part(), part(), part()
        vxy = vi_partitions(x, y)
        assert vxy >= -slack
        assert abs(vxy - vi_partitions(y, x)) <= slack
        assert vi_partitions(x, x) <= slack
        assert vi_partitions(x, z) <= vxy + vi_partitions(y, z) + slack
    _report(6, "symmetry, non-negativity, identity and triangle inequality on 1000 triples")


def _uniform_degree_snapshot(alpha, beta, seed, n=1000):
    rng = np.random.default_rng(seed)
    sizes = CommunitySpec((n,))
    total = list(sample_degrees(SamplerConfig("uniform", 5, 30), n, rng))
    if sum(total) % 2:  # keep the all-intra split free of stray inter stubs
        total[0] += 1 if total[0] < 30 else -1
    spec = split_degrees(tuple(total), 1.0, "fixed", "nearest", rng)
    return assemble_snapshot(0, sizes, spec, rng, pairing_shape=ShapeParams(alpha, beta))


def test_acceptance_7_assortativity_ordering():
    means = {}
    for alpha, beta in ((21, 1), (1, 1), (1, 21)):
        values = [
            assortativity_details(_uniform_degree_snapshot(alpha, beta, seed))[0]
            for seed in range(20)
        ]
        means[(alpha, beta)] = float(np.mean(values))
    assert means[(21, 1)] > means[(1, 1)] > means[(1, 21)], means
    assert abs(means[(1, 1)]) < 0.05, means
    _report(
        7,
        "mean assortativity ordered "
        f"{means[(21, 1)]:+.3f} > {means[(1, 1)]:+.3f} > {means[(1, 21)]:+.3f}"
        " over 20 seeds each",
    )


def test_acceptance_8_temporal_correlation_response():
    def mean_corr(alpha, beta):
        cfg = RunConfig(
            timesteps=11,
            seed=88,
            community_cfg=SamplerConfig("uniform", 250, 250),
            degree_cfg=SamplerConfig("uniform", 5, 30, mix_ratio=0.7),
            community_count=4,
            kills=0,
            temporal_shape=ShapeParams(alpha, beta),
        )
        series = run(cfg).report.temporal_correlation_series
        assert len(series) == 10
        return float(np.mean(series))

    flat = mean_corr(1, 1)
    skewed = mean_corr(5, 1)
    peaked = mean_corr(21, 1)
    assert abs(flat) <= 0.1, flat
    assert flat <= skewed + 1e-9 <= peaked + 2e-9, (flat, skewed, peaked)
    _report(
        8,
        f"mean temporal degree correlation {flat:+.3f} <= {skewed:+.3f} <= {peaked:+.3f}"
        " across increasing shape skew (11 steps)",
    )


def test_acceptance_9_mix_ratio_modularity_direction():
    # mu is the inter-community (mixing) fraction; the intra ratio is 1 - mu
    def mean_q(mu):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            sizes = CommunitySpec((100,) * 10)
            total = sample_degrees(SamplerConfig("uniform", 5, 30), 1000, rng)
            spec = split_degrees(total, 1.0 - mu, "fixed", "nearest", rng)
            spec = fix_parity(spec, rng, (5, 30))
            values.append(modularity(assemble_snapshot(0, sizes, spec, rng)))
        return float(np.mean(values))

    q1, q5, q9 = mean_q(0.1), mean_q(0.5), mean_q(0.9)
    assert q1 > q5 > q9, (q1, q5, q9)
    _report(
        9,
        f"ground-truth modularity strictly decreasing in the mixing fraction:"
        f" {q1:.3f} > {q5:.3f} > {q9:.3f}",
    )


def test_acceptance_10_end_to_end_scale(tmp_path):
    cfg = RunConfig(
        timesteps=11,
        seed=1010,
        community_cfg=SamplerConfig("power_law", 50, 800, param=1.5),
        degree_cfg=SamplerConfig("power_law", 10, 150, param=2.5, mix_ratio=0.7),
        community_count=50,
        kills=20,
        output_dir=str(tmp_path / "scale_run"),
    )
    start = time.time()
    result = run(cfg)
    elapsed = time.time() - start
    assert elapsed < 600, f"run took {elapsed:.0f}s"
    assert len(result.report.boundaries) == 10
    sizes = [s.node_count for s in result.snapshots]
    assert min(sizes) > 5000  # the power-law size config targets ~1e4 nodes
    names = sorted(os.listdir(result.output_dir))
    assert names == ["edges.csv", "nodes.csv", "report.json", "report.txt"]
    communities, edges = read_temporal_csv(
        os.path.join(result.output_dir, "nodes.csv"),
        os.path.join(result.output_dir, "edges.csv"),
    )
    for snap in result.snapshots:
        want = {nid: snap.community_labels[n.community] for nid, n in snap.nodes.items()}
        assert communities[snap.t] == want
        assert edges[snap.t] == snap.links
    _report(
        10,
        f"11-step run with {max(sizes)} peak nodes finished in {elapsed:.0f}s,"
        " 10 boundary reports, CSV round-trip exact",
    )
