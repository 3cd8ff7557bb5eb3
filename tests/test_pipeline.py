"""The full generation loop, transition planning and the CLI."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    ConfigurationError,
    DegreeSpec,
    GraphabilityError,
    RunConfig,
    SamplerConfig,
    ShapeParams,
    TemponetError,
    WiringError,
    dump_sequences,
    fix_parity,
    load_run_config,
    plan_transition,
    read_temporal_csv,
    run,
)
import temponet
from temponet import assembler, pipeline
from temponet.cli import main as cli_main

from oracles import clustering, reference_layers


def small_cfg(**kw):
    base = dict(
        timesteps=3,
        seed=11,
        community_cfg=SamplerConfig("uniform", 10, 20),
        degree_cfg=SamplerConfig("uniform", 3, 8, mix_ratio=0.7),
        community_count=4,
        kills=2,
    )
    base.update(kw)
    return RunConfig(**base)


# modules the interpreter loaded at start-up (site hooks) are not the run's
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from temponet import RunConfig, SamplerConfig, run
run(RunConfig(
    timesteps=2,
    seed=3,
    community_cfg=SamplerConfig("uniform", 10, 20),
    degree_cfg=SamplerConfig("uniform", 3, 8, mix_ratio=0.7),
    community_count=4,
    kills=2,
    output_dir=sys.argv[1],
))
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# numpy.random's Cython extensions register cython_runtime and _cython_<version>
print(*sorted(
    name for name in loaded - set(sys.stdlib_module_names) - {"numpy", "temponet"}
    if name != "cython_runtime" and not name.startswith("_cython_")
))
"""


def test_a_run_imports_only_the_standard_library_and_numpy(tmp_path):
    # pyproject.toml declares numpy alone; scipy and networkx serve the tests
    src = str(Path(temponet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
    assert (tmp_path / "edges.csv").exists()


def test_plan_transition_arithmetic():
    rng = np.random.default_rng(0)
    alive = range(100)
    equal = plan_transition(CommunitySpec((50, 50)), CommunitySpec((60, 40)), (), rng, alive)
    assert (equal.deaths, equal.births) == (0, 0)
    assert equal.sizes_from_augmented == (50, 50)
    assert equal.sizes_to_augmented == (60, 40)

    shrink = plan_transition(
        CommunitySpec((50, 50)), CommunitySpec((50, 40)), (1, 2, 3, 4), rng, alive
    )
    assert shrink.deaths == 10  # 4 explicit + 6 additional random kills
    assert len(shrink.kill_ids) == 10
    assert shrink.births == 0
    assert shrink.sizes_to_augmented == (50, 40, 10)
    assert shrink.death_col == 2 and shrink.birth_row is None

    grow = plan_transition(
        CommunitySpec((50, 50)), CommunitySpec((60, 50)), (1, 2, 3, 4), rng, alive
    )
    assert grow.deaths == 4 and grow.births == 14
    assert grow.sizes_from_augmented == (50, 50, 14)
    assert grow.birth_row == 2 and grow.death_col == 2


def test_plan_transition_draws_extra_victims_from_alive():
    rng = np.random.default_rng(1)
    plan = plan_transition(
        CommunitySpec((5, 5)), CommunitySpec((7,)), (3,), rng, alive_ids=range(10)
    )
    assert plan.deaths == 3 and len(plan.kill_ids) == 3
    assert 3 in plan.kill_ids
    assert set(plan.kill_ids) <= set(range(10))


def test_plan_transition_draws_a_kill_count_from_the_ascending_alive_ids():
    # a count is one choice over the sorted alive ids, then the balancing draw
    rng, want = np.random.default_rng(5), np.random.default_rng(5)
    plan = plan_transition(
        CommunitySpec((5, 5)), CommunitySpec((6,)), 2, rng, alive_ids=range(9, -1, -1)
    )
    first = want.choice(10, size=2, replace=False)
    rest = [nid for nid in range(10) if nid not in first]
    second = want.choice(len(rest), size=2, replace=False)
    assert plan.kill_ids == tuple(sorted([*first.tolist(), *(rest[i] for i in second)]))
    assert rng.bit_generator.state == want.bit_generator.state
    rng = np.random.default_rng(5)
    plan_transition(CommunitySpec((5, 5)), CommunitySpec((10,)), 0, rng, alive_ids=range(10))
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    with pytest.raises(ConfigurationError, match="cannot kill 11 of 10 alive nodes"):
        plan_transition(CommunitySpec((5, 5)), CommunitySpec((10,)), 11, rng, alive_ids=range(10))
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_plan_transition_validation():
    with pytest.raises(ConfigurationError, match="exceeds the population 2"):
        plan_transition(
            CommunitySpec((2,)), CommunitySpec((2,)), (1, 2, 3), np.random.default_rng(0), range(4)
        )


def test_plan_transition_refuses_kill_ids_that_are_not_alive():
    # a dead id in the kill set would count a death that no node makes
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError, match=r"kill ids \[10, 99\] are not alive"):
        plan_transition(
            CommunitySpec((5, 5)), CommunitySpec((7,)), (99, 3, 10), rng, alive_ids=range(10)
        )
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kills", -2, "random kill counts"),
        ("kills", [1, -1], "random kill counts"),
        ("kills", [1, "2"], "not an integer"),
        ("max_sequence_retries", 0, "max_sequence_retries"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, r"seed: 1\.5 is not an integer"),
        ("timesteps", 2.5, r"timesteps: 2\.5 is not an integer"),
        ("community_count", "4", "community_count: '4' is not an integer"),
        ("max_sequence_retries", 2.0, r"max_sequence_retries: 2\.0 is not an integer"),
    ],
    ids=[
        "kills", "kills_per_boundary", "kills_not_integer", "max_sequence_retries", "seed",
        "seed_float", "timesteps_float", "community_count_str", "max_sequence_retries_float",
    ],
)
def test_run_config_rejects_values_that_fail_later(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        small_cfg(**{field: value})


@pytest.mark.parametrize("name, value", [("mix_ratio", 0.9), ("mix_mode", "bernoulli")])
def test_run_config_rejects_mix_settings_on_the_community_sampler(name, value):
    # the mix settings split degrees: the community sampler reads neither
    with pytest.raises(ConfigurationError, match=f"community_cfg.{name}"):
        small_cfg(community_cfg=SamplerConfig("uniform", 10, 20, **{name: value}))
    small_cfg(degree_cfg=SamplerConfig("uniform", 3, 8, **{name: value}))


@pytest.mark.parametrize(
    "kills, resolved",
    [
        ([1, 2, 0, 4, 5], [1, 2, 0, 4, 5]),
        ([1, 2], "kill list shorter"),
        ([[3], [], [4, 5], [6], [7]], [(3,), (), (4, 5), (6,), (7,)]),
        ([[3], [4, 5]], "kill list shorter"),
        ([1, 2, 0, 4, 5, 6], [1, 2, 0, 4, 5]),
        (4, [4, 4, 4, 4, 4]),
        ([], [0, 0, 0, 0, 0]),
        ([np.int64(2), np.int64(3), 0, 4, 5], [2, 3, 0, 4, 5]),
        ([np.int64(-1), 3, 0, 4, 5], "random kill counts"),
        (np.int64(3), [3, 3, 3, 3, 3]),
    ],
    ids=[
        "counts", "counts_short", "id_lists", "id_lists_short", "counts_long",
        "one_count", "no_ids", "numpy_counts", "numpy_negative_count", "numpy_one_count",
    ],
)
def test_run_config_checks_a_per_boundary_kill_list_up_front(kills, resolved):
    # six timesteps have five boundaries; a short list or a negative count
    # fails before any wiring, and numpy integers are counts like ints
    if isinstance(resolved, str):
        with pytest.raises(ConfigurationError, match=resolved):
            small_cfg(timesteps=6, kills=kills)
        return
    cfg = small_cfg(timesteps=6, kills=kills)
    got = [pipeline._kills_for_boundary(cfg, boundary) for boundary in range(5)]
    assert got == resolved
    ints = [x for spec in got for x in (spec if isinstance(spec, tuple) else (spec,))]
    assert all(type(x) is int for x in ints)


def test_boundary_recount_reads_the_realized_snapshots(monkeypatch):
    # an assembly that swaps the targets of two survivors from different
    # source communities into different target communities must not pass
    built = []
    real_assemble, real_assign = pipeline.assemble_snapshot, assembler.assign_nodes

    def assemble(*args, **kwargs):
        built.append(real_assemble(*args, **kwargs))
        return built[-1]

    def assign(*args, ids=None, **kwargs):
        nodes, community, *degrees = real_assign(*args, ids=ids, **kwargs)
        if ids is not None:
            old = built[-1].nodes
            kept = sorted((nid, p) for p, nid in enumerate(nodes.tolist()) if nid in old)
            a, b = next(
                (a, b)
                for nid_a, a in kept
                for nid_b, b in kept
                if old[nid_a].community != old[nid_b].community and community[a] != community[b]
            )
            nodes = nodes.copy()
            nodes[[a, b]] = nodes[[b, a]]
        return (nodes, community, *degrees)

    monkeypatch.setattr(pipeline, "assemble_snapshot", assemble)
    monkeypatch.setattr(assembler, "assign_nodes", assign)
    with pytest.raises(AssertionError, match="realized contingency deviates"):
        run(small_cfg(timesteps=2))


def test_run_single_timestep_has_no_boundaries():
    result = run(small_cfg(timesteps=1, kills=0))
    assert len(result.snapshots) == 1
    assert result.report.boundaries == []
    assert result.report.snapshots[0].nodes == result.snapshots[0].node_count


def test_run_is_deterministic():
    a = run(small_cfg())
    b = run(small_cfg())
    assert [s.links for s in a.snapshots] == [s.links for s in b.snapshots]
    assert [s.community_labels for s in a.snapshots] == [
        s.community_labels for s in b.snapshots
    ]
    assert json.dumps(a.report.config) == json.dumps(b.report.config)
    assert [b1.contingency for b1 in a.report.boundaries] == [
        b2.contingency for b2 in b.report.boundaries
    ]


def test_run_conservation_and_id_stability():
    result = run(small_cfg(timesteps=4, kills=3))
    ids = [set(s.nodes) for s in result.snapshots]
    for t, boundary in enumerate(result.report.boundaries):
        survivors = ids[t] & ids[t + 1]
        assert len(survivors) + boundary.deaths == len(ids[t])
        assert len(survivors) + boundary.births == len(ids[t + 1])
        # dead ids never come back
        dead = ids[t] - ids[t + 1]
        for later in ids[t + 1 :]:
            assert not (dead & later)
    # id counter grows monotonically: newborn ids exceed every earlier id
    for t in range(1, len(ids)):
        born = ids[t] - ids[t - 1]
        if born:
            assert min(born) > max(ids[t - 1])


def test_run_every_snapshot_validates_and_contingency_matches():
    result = run(small_cfg(timesteps=4, seed=5))
    for snap in result.snapshots:
        snap.validate()
    for t, boundary in enumerate(result.report.boundaries):
        u = np.array(boundary.contingency)
        snap_t, snap_t1 = result.snapshots[t], result.snapshots[t + 1]
        k, l = snap_t.community_count, snap_t1.community_count
        recount = np.zeros((k, l), dtype=int)
        nodes_t, nodes_t1 = snap_t.nodes, snap_t1.nodes
        for nid in set(nodes_t) & set(nodes_t1):
            recount[nodes_t[nid].community, nodes_t1[nid].community] += 1
        assert np.array_equal(u[:k, :l], recount)
        assert u.sum() == snap_t.node_count + boundary.births
        # row sums of the real block reproduce the sizes at t
        assert list(u.sum(axis=1))[:k] == [len(g) for g in clustering(snap_t)]


def test_run_explicit_kill_ids_die():
    probe = run(small_cfg(timesteps=2, kills=0))
    victims = sorted(probe.snapshots[0].nodes)[:3]
    result = run(small_cfg(timesteps=2, kills=[victims]))
    assert set(victims) & set(result.snapshots[1].nodes) == set()
    assert result.report.boundaries[0].deaths >= 3


def test_run_names_the_boundary_of_a_dead_kill_id():
    # the ids of this small run stay far below 100000, so that id is never alive
    message = r"^boundary 1: kill ids \[100000\] are not alive$"
    with pytest.raises(ConfigurationError, match=message):
        run(small_cfg(timesteps=3, kills=[[], [100000]]))


def test_numpy_integers_configure_a_run_like_ints(tmp_path):
    fields = dict(timesteps=np.int64(2), seed=np.int64(3), community_count=np.int32(4))
    cfg = small_cfg(output_dir=str(tmp_path), max_sequence_retries=np.int16(2), **fields)
    run(cfg)
    assert sorted(os.listdir(tmp_path)) == ["edges.csv", "nodes.csv", "report.json", "report.txt"]
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    assert [echo[name] for name in (*fields, "max_sequence_retries")] == [2, 3, 4, 2]
    assert all(type(getattr(cfg, name)) is int for name in (*fields, "max_sequence_retries"))


def test_run_sequence_file_mode(tmp_path):
    rng = np.random.default_rng(8)
    steps = []
    for _ in range(2):
        sizes = CommunitySpec((6, 6))
        total = tuple(int(x) for x in rng.integers(2, 5, 12))
        spec = DegreeSpec(total, tuple(min(2, d) for d in total))
        from temponet import fix_parity

        steps.append((sizes, fix_parity(spec, rng)))
    path = tmp_path / "steps.txt"
    dump_sequences(steps, path)
    cfg = RunConfig(timesteps=2, seed=3, sequence_file=str(path), kills=0)
    result = run(cfg)
    assert len(result.snapshots) == 2
    got = sorted(n.degree for n in result.snapshots[0].nodes.values())
    assert got == sorted(steps[0][1].total)


def test_run_batch_mode_halts_on_ungraphable_file(tmp_path):
    # odd total intra sum cannot be clustered
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 1\n2 1\n2 1\n")
    cfg = RunConfig(timesteps=1, seed=0, sequence_file=str(path))
    with pytest.raises(GraphabilityError):
        run(cfg)


def test_run_output_files(tmp_path):
    out = tmp_path / "out"
    result = run(small_cfg(output_dir=str(out)))
    names = sorted(os.listdir(out))
    assert names == ["edges.csv", "nodes.csv", "report.json", "report.txt"]
    communities, edges = read_temporal_csv(out / "nodes.csv", out / "edges.csv")
    for snap in result.snapshots:
        assert edges[snap.t] == snap.links
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["boundaries"]) == 2
    assert payload["seed"] == 11


def test_a_run_reads_links_as_endpoint_rows_only(tmp_path, monkeypatch):
    # no runtime path may build the tuple set that Snapshot.links makes, nor
    # the Node dict that Snapshot.nodes makes
    want, got = tmp_path / "want", tmp_path / "got"
    result = run(small_cfg(timesteps=2, output_dir=str(want)))
    with pytest.raises(ValueError):
        result.snapshots[0].endpoints[0, 0] = 0

    for name in ("links", "nodes"):

        def refuse(snap, name=name):
            raise AssertionError(f"Snapshot.{name} read during a run")

        monkeypatch.setattr(assembler.Snapshot, name, property(refuse))
    run(small_cfg(timesteps=2, output_dir=str(got)))
    for name in ("nodes.csv", "edges.csv", "report.json", "report.txt"):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def _run_outcome(cfg):
    """The four output files of a run, as bytes, or its error as text."""
    try:
        run(cfg)
    except TemponetError as exc:
        return f"{type(exc).__name__}: {exc}"
    out = Path(cfg.output_dir)
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def _sequence_file(kw, path, seed):
    """Turn the sampler config ``kw`` into a sequence-file run of its own draws.

    Each timestep's block is the first of up to ``max_sequence_retries``
    draws that passes the gate before membership, or the last draw.
    """
    cfg, rng, steps = RunConfig(**kw), np.random.default_rng(seed), []
    for _ in range(cfg.timesteps):
        for _ in range(cfg.max_sequence_retries):
            block = pipeline._draw_sequences(cfg, rng)
            if pipeline.check_graphable(*block).ok:
                break
        steps.append(block)
    dump_sequences(steps, path)
    for name in ("community_cfg", "degree_cfg", "community_count", "max_sequence_retries"):
        del kw[name]
    kw["sequence_file"] = str(path)


def test_runs_match_the_reference_wiring_and_export(tmp_path):
    """100 small seeded configs, run once through the library and once
    with ``reference_layers`` installed: every output byte, or the error
    text, must agree.

    The references cover node placement (``assign_nodes``, bootstrap and
    temporal), the post-assignment gate (``check_graphable`` with a
    membership), intra wiring (``wire_intra``, one reference phase per
    community) and inter wiring (``wire_inter``), the move planning
    (``_plan_moves``: the dead nodes per community, the survivor groups and
    the surviving map), the seed pool (``mi_greedy``,
    ``sorted_residual_greedy``, ``max_chunk_greedy`` and
    ``proportional_fill``), the flow search (``taboo_search``), the VI of a
    flow, its materialization (``materialize_flow``), the label matching
    (``inherit_labels``) and the CSV export (``export_temporal_csv``).  The
    other layers need no reference: the library form of
    ``northwest_sorted`` is the plain loop, ``kernel_basis`` is one
    ``np.indices``, and
    ``test_flow_jaccard_matches_set_jaccard_on_every_boundary`` checks
    ``flow_jaccard`` against set Jaccard on every boundary.  Dense small
    communities force wiring repairs, and some configs end in an error.
    The configs mix both roundings, per-boundary kill-count lists,
    ``no_search``,
    ``on_disconnected="abort"`` and, in every tenth case, a sequence file
    of the sampler's own draws.
    """
    gen = np.random.default_rng(2718)
    ends = Counter()
    for case in range(100):
        low = int(gen.integers(4, 20))
        dmin = int(gen.integers(1, 4))
        family = ("uniform", "power_law", "binomial")[case % 3]
        kw = dict(
            timesteps=int(gen.integers(1, 5)),
            seed=case,
            community_cfg=SamplerConfig("uniform", low, low + int(gen.integers(0, 20))),
            degree_cfg=SamplerConfig(
                family,
                dmin,
                dmin + int(gen.integers(1, 10)),
                param=(1.0, 2.5, 0.5)[case % 3],
                mix_ratio=float(gen.uniform(0.3, 1.0)),
                mix_mode=("fixed", "bernoulli")[case % 2],
                rounding=("stochastic", "nearest")[case // 2 % 2],
            ),
            community_count=int(gen.integers(1, 6)),
            kills=int(gen.integers(0, 4)),
            pairing_shape=ShapeParams(*[(1, 1), (5, 1), (1, 5), (0.5, 0.5)][case % 4]),
            max_sequence_retries=int(gen.integers(1, 6)),
            no_search=case % 5 == 4,
            on_disconnected=("warn", "abort")[case % 7 in (2, 5)],
        )
        if case % 4 == 3:
            kw["kills"] = [(kw["kills"] + b) % 4 for b in range(kw["timesteps"] - 1)]
        kind = "sampler"
        if case % 10 == 9:
            _sequence_file(kw, tmp_path / f"steps{case}.txt", case)
            kind = "file"
        library = _run_outcome(RunConfig(**kw, output_dir=str(tmp_path / f"lib{case}")))
        with reference_layers():
            reference = _run_outcome(RunConfig(**kw, output_dir=str(tmp_path / f"ref{case}")))
        assert library == reference, case
        if isinstance(library, str):
            ends[library.partition(":")[0]] += 1
        else:
            repairs = json.loads(library["report.json"])["snapshots"]
            ends["repaired" if any(s["wiring_repairs"] for s in repairs) else "plain"] += 1
            ends[kind] += 1
    assert ends["repaired"] and ends["plain"] and ends["GraphabilityError"], ends
    assert ends["file"], ends


def test_report_echoes_the_complete_config(tmp_path):
    # a run must be reproducible from its report alone; only the output
    # directory, which does not change the outputs, is left out
    from dataclasses import fields

    cfg = small_cfg(output_dir=str(tmp_path), max_sequence_retries=7)
    run(cfg)
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    assert set(echo) == {f.name for f in fields(RunConfig)} - {"output_dir"}
    assert echo["max_sequence_retries"] == 7 and "repair_budget_factor" not in echo
    assert echo["thresholds"]["size_dead_band"] == cfg.thresholds.size_dead_band
    assert echo["degree_cfg"]["mix_ratio"] == 0.7


def test_run_interactive_resamples(monkeypatch):
    # one draw per timestep (the default) stops on the first ungraphable
    # draw; more draws retry.
    # A tiny odd-sized community with high degrees is frequently ungraphable,
    # so compare behaviours over the same seed.
    cfg = dict(
        timesteps=1,
        seed=19,
        community_cfg=SamplerConfig("uniform", 3, 4),
        degree_cfg=SamplerConfig("uniform", 2, 3, mix_ratio=1.0, rounding="nearest"),
        community_count=1,
        kills=0,
    )
    failures = 0
    successes = 0
    for seed in range(40):
        cfg["seed"] = seed
        try:
            run(RunConfig(**cfg))
            successes += 1
        except GraphabilityError:
            failures += 1
    assert failures > 0 and successes > 0
    # 40 draws per timestep succeed on every one of those seeds
    for seed in range(40):
        cfg["seed"] = seed
        run(RunConfig(**cfg, max_sequence_retries=40))


def test_abort_on_disconnected_redraws_at_t0_in_interactive_mode():
    # sparse intra degrees often wire a community in several pieces; this
    # seed's first T0 draw does, so a single draw stops the run and more
    # draws try again, as they do at every later timestep
    cfg = dict(
        timesteps=1,
        seed=1,
        community_cfg=SamplerConfig("uniform", 5, 8),
        degree_cfg=SamplerConfig("uniform", 2, 4, mix_ratio=0.6),
        community_count=2,
        on_disconnected="abort",
    )
    with pytest.raises(GraphabilityError, match="internally disconnected"):
        run(RunConfig(**cfg))
    result = run(RunConfig(**cfg, max_sequence_retries=10))
    assert result.snapshots[0].disconnected_communities == []


def test_exhausted_sequence_draws_name_timestep_attempts_and_conditions():
    # every intra degree equals the single community's size, so every draw
    # fails the capacity condition
    cfg = RunConfig(
        timesteps=1,
        seed=0,
        community_cfg=SamplerConfig("uniform", 4, 4),
        degree_cfg=SamplerConfig("uniform", 4, 4, mix_ratio=1.0, rounding="nearest"),
        community_count=1,
        max_sequence_retries=3,
    )
    with pytest.raises(GraphabilityError) as info:
        run(cfg)
    message = str(info.value)
    assert message.startswith("timestep 0: 3 sequence draw(s) failed:")
    assert "assignment_infeasible" in message and "(x3)" in message


def test_a_draw_whose_parity_cannot_be_mended_is_drawn_again():
    # every degree is 1 and every stub inter, so a draw of an odd node count
    # has an odd inter sum that the bounds (1, 1) give no room to mend; such
    # a draw fails like any other, and the run draws again
    def cfg(seed):
        return RunConfig(
            timesteps=2,
            seed=seed,
            community_cfg=SamplerConfig("uniform", 4, 7),
            degree_cfg=SamplerConfig("uniform", 1, 1, mix_ratio=0.0),
            community_count=2,
            max_sequence_retries=8,
        )

    with pytest.raises(GraphabilityError, match="cannot repair inter-degree parity"):
        fix_parity(DegreeSpec((1, 1, 1), (0, 0, 0)), np.random.default_rng(0), (1, 1))
    assert [snap.node_count % 2 for snap in run(cfg(0)).snapshots] == [0, 0]
    for seed in range(1, 12):
        try:
            run(cfg(seed))
        except GraphabilityError:
            pass


def test_exhausted_assembly_names_its_conditions_in_the_draw_error(tmp_path):
    # the gate passes, but the singleton's only fitting slot has 4 inter stubs
    # that nobody else can take, so every assignment attempt fails
    path = tmp_path / "steps.txt"
    path.write_text("1 3\n4 0\n2 2\n2 2\n2 2\n")
    with pytest.raises(GraphabilityError) as info:
        run(RunConfig(timesteps=1, seed=0, sequence_file=str(path)))
    message = str(info.value)
    assert message.startswith("timestep 0: 1 sequence draw(s) failed: 10 assignment attempt(s)")
    assert message.count("timestep 0") == 1
    assert "inter_max" in message and "(x10)" in message


def test_lone_community_with_inter_stubs_fails_at_the_gate(tmp_path, monkeypatch):
    # one community and 2 inter stubs: the gate refuses the block before
    # any placement pass is spent on it
    path = tmp_path / "steps.txt"
    path.write_text("4\n3 2\n3 2\n2 2\n2 2\n")
    calls = []
    real = assembler.assign_nodes

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(assembler, "assign_nodes", counted)
    with pytest.raises(GraphabilityError) as info:
        run(RunConfig(timesteps=1, seed=0, sequence_file=str(path)))
    assert str(info.value) == (
        "timestep 0: 1 sequence draw(s) failed: inter_lone_community: 2 inter stubs"
        " in a single community: no other community exists to take them"
    )
    assert calls == []


def test_mid_scale_run_produces_lifecycle_events(tmp_path):
    # ~200 nodes moving from 10 to 9 communities: the minimum-VI flow has to
    # absorb one community, so the log carries events beyond plain
    # continuation
    from temponet import SamplerConfig, fix_parity, sample_degrees, split_degrees
    from temponet.lifecycle import CONTINUES, CONTINUES_GROWING, CONTINUES_SHRINKING

    rng = np.random.default_rng(20)
    steps = []
    for sizes in (CommunitySpec((20,) * 10), CommunitySpec((22,) * 8 + (24,))):
        total = sample_degrees(SamplerConfig("uniform", 3, 8), sizes.node_count, rng)
        spec = split_degrees(total, 0.7, "fixed", "stochastic", rng)
        steps.append((sizes, fix_parity(spec, rng, (3, 9))))
    path = tmp_path / "steps.txt"
    dump_sequences(steps, path)
    result = run(RunConfig(timesteps=2, seed=6, sequence_file=str(path), kills=0))
    events = result.report.boundaries[0].events
    assert events
    plain = {CONTINUES, CONTINUES_GROWING, CONTINUES_SHRINKING}
    assert any(rec.event not in plain for rec in events), [r.event for r in events]


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        """
[run]
timesteps = 3
seed = 9
kills = 1
max_sequence_retries = 3

[communities]
family = uniform
min = 10
max = 14
count = 3

[degrees]
family = uniform
min = 3
max = 6
mix_ratio = 0.6
mix_mode = bernoulli

[shapes]
pairing_alpha = 2.0
temporal_alpha = 3.0

[lifecycle]
continuation = 0.25
share = 0.15
size_dead_band = 0.05
"""
    )
    cfg = load_run_config(path)
    assert cfg.timesteps == 3 and cfg.seed == 9 and cfg.kills == 1
    assert cfg.community_cfg.maximum == 14 and cfg.community_count == 3
    assert cfg.degree_cfg.mix_mode == "bernoulli"
    assert cfg.pairing_shape.alpha == 2.0 and cfg.temporal_shape.alpha == 3.0
    assert cfg.thresholds.continuation == 0.25 and cfg.thresholds.size_dead_band == 0.05
    assert cfg.max_sequence_retries == 3
    cfg2 = load_run_config(path, overrides={"seed": 77})
    assert cfg2.seed == 77
    result = run(cfg)
    assert len(result.snapshots) == 3


def test_readme_config_example_loads_verbatim(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_run_config(path)
    assert cfg.timesteps == 11 and cfg.seed == 42 and cfg.kills == 3
    assert cfg.no_search is False
    assert cfg.sequence_file is None and cfg.output_dir is None
    assert cfg.community_count == 5 and cfg.degree_cfg.rounding == "stochastic"
    assert cfg.max_sequence_retries == 10
    assert cfg.thresholds.size_dead_band == 0.02


def test_cli_version_and_flow(capsys):
    assert cli_main(["version"]) == 0
    assert cli_main(
        ["flow", "--sizes-from", "10,8,6", "--sizes-to", "12,10,2", "--cap", "1000"]
    ) == 0
    out = capsys.readouterr().out
    assert "solution count: 279" in out
    assert "mi_greedy" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sizes-from", "10,,6", "--sizes-to", "12,4"], "empty entry in the size list"),
        (["--sizes-from", "10,6", "--sizes-to", "12,4,"], "empty entry in the size list"),
        (["--sizes-from", "10,8,6", "--sizes-to", "12,10,2", "--cap", "-5"], "non-negative"),
    ],
    ids=["double-comma", "trailing-comma", "negative-cap"],
)
def test_cli_flow_rejects_bad_arguments(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["flow", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and "solution count" not in captured.out


def test_cli_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("2 2\n1 1\n1 1\n1 1\n1 1\n")
    assert cli_main(["check", "--file", str(good)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n2 1\n2 1\n2 1\n")
    assert cli_main(["check", "--file", str(bad)]) == 3
    assert cli_main(["check", "--file", str(tmp_path / "missing.txt")]) == 5


SMALL_INI = """
[run]
timesteps = 2
seed = 4
kills = 1

[communities]
family = uniform
min = 8
max = 12
count = 3

[degrees]
family = uniform
min = 2
max = 5
mix_ratio = 0.7
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[run]", "[run]\ninteractive = true", r"unknown key 'interactive' in section \[run\]"),
        (
            "[run]",
            "[run]\nrepair_budget_factor = 7",
            r"unknown key 'repair_budget_factor' in section \[run\]",
        ),
        ("count", "mix_ratio = 0.5\ncount", r"unknown key 'mix_ratio' in section \[communities\]"),
        ("count", "mix_mode = fixed\ncount", r"unknown key 'mix_mode' in section \[communities\]"),
        ("seed", "sed", r"unknown key 'sed' in section \[run\]"),
        ("[run]", "[search]\ntries = 3\n\n[run]", r"unknown section \[search\]"),
        ("min = 8\n", "", r"\[communities\] min is required"),
        ("max = 5\n", "max =\n", r"\[degrees\] max is required"),
        ("family = uniform\nmin = 2", "min = 2", r"\[degrees\] family is required"),
        ("kills = 1", "no_search = ture", r"\[run\] no_search: .*ture"),
        ("kills = 1", "no_search = yes please", r"\[run\] no_search: .*yes please"),
        ("kills = 1", "kills = one", r"\[run\] kills: .*'one'"),
    ],
    ids=[
        "interactive", "repair_budget_factor", "communities_mix_ratio", "communities_mix_mode",
        "misspelt_key", "unknown_section", "missing_min", "empty_max", "missing_family",
        "boolean_typo", "boolean_with_words", "not_an_integer",
    ],
)
def test_config_file_names_the_section_and_key_it_rejects(tmp_path, old, new, message):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_INI.replace(old, new, 1))
    with pytest.raises(ConfigurationError, match=message):
        load_run_config(path)


@pytest.mark.parametrize("text, value", [("on", True), ("Yes", True), ("1", True), ("off", False)])
def test_config_file_reads_configparser_booleans(tmp_path, text, value):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_INI.replace("kills = 1", f"no_search = {text}"))
    assert load_run_config(path).no_search is value


def test_cli_no_search_keeps_the_best_seed_pool_flow(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(SMALL_INI)
    reports = {}
    for name, flags in (("searched", []), ("pool", ["--no-search"])):
        out = tmp_path / name
        args = ["generate", "--config", str(ini), "--output", str(out), "--timesteps", "4"]
        assert cli_main(args + flags) == 0
        reports[name] = json.loads((out / "report.json").read_text())
    assert reports["pool"]["config"]["no_search"] is True
    assert reports["searched"]["config"]["no_search"] is False
    for boundary in reports["pool"]["boundaries"]:
        assert boundary["vi"] == min(boundary["seed_pool_vi"])
    for boundary in reports["searched"]["boundaries"]:
        assert boundary["vi"] <= min(boundary["seed_pool_vi"])
    assert len(reports["pool"]["boundaries"]) == 3


def test_cli_generate(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(SMALL_INI)
    out = tmp_path / "result"
    assert cli_main(["generate", "--config", str(ini), "--output", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["edges.csv", "nodes.csv", "report.json", "report.txt"]
    # bad config file -> validation exit code
    broken = tmp_path / "broken.ini"
    broken.write_text("[run]\ntimesteps = 0\n")
    assert cli_main(["generate", "--config", str(broken)]) == 2
    # a negative random-kill count is a validation error, not a crash in the draw
    negative = tmp_path / "negative.ini"
    negative.write_text(ini.read_text().replace("kills = 1", "kills = -2"))
    assert cli_main(["generate", "--config", str(negative), "--output", str(out)]) == 2
    assert "random kill counts must be >= 0" in capsys.readouterr().err
    # malformed files and negative seeds are validation errors, not tracebacks
    malformed = {
        "duplicate.ini": SMALL_INI.replace("seed = 4", "seed = 4\nseed = 5"),
        "headless.ini": SMALL_INI.replace("[run]\n", ""),
        "negative_seed.ini": SMALL_INI.replace("seed = 4", "seed = -1"),
    }
    for name, text in malformed.items():
        (tmp_path / name).write_text(text)
        assert cli_main(["generate", "--config", str(tmp_path / name), "--output", str(out)]) == 2
    assert cli_main(["generate", "--config", str(ini), "--seed", "-3", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "option 'seed' in section 'run' already exists" in err
    assert "no section headers" in err and err.count("seed must be >= 0") == 2


def test_config_file_requires_timesteps(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 3\nsequence_file = steps.txt\n")
    with pytest.raises(ConfigurationError, match="timesteps is required"):
        load_run_config(path)
    assert load_run_config(path, overrides={"timesteps": 4}).timesteps == 4


@pytest.mark.parametrize(
    "error, code",
    [(ConfigurationError, 2), (GraphabilityError, 3), (WiringError, 4), (TemponetError, 1)],
)
def test_cli_exit_code_of_each_error_class(tmp_path, monkeypatch, capsys, error, code):
    def failing_run(cfg):
        raise error("boom")

    monkeypatch.setattr("temponet.cli.run", failing_run)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ntimesteps = 1\nsequence_file = steps.txt\n")
    assert cli_main(["generate", "--config", str(ini), "--output", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: boom\n"
