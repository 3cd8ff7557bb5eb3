"""End-to-end temporal network generation.

Every timestep goes through one step.  From T1 on, the step first applies
the kill set, balances populations with birth/death adjustment communities,
searches the flow polytope for the minimum-VI node flow (kept flows pinned
to the user kills) and materializes the flow into concrete node moves.  Then
it assigns degree tuples (with the temporal-correlation draw after T0),
wires the snapshot and reports metrics plus lifecycle events.  Interactive
sampling draws a timestep's sequences again when they fail the gate or the
assembly, up to ``max_sequence_retries`` draws per timestep.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembler import (
    DEFAULT_REPAIR_BUDGET_FACTOR,
    ShapeParams,
    Snapshot,
    assemble_snapshot,
)
from .errors import ConfigurationError, GraphabilityError
from .graphability import check_graphable
from .lifecycle import (  # noqa: F401 -- perfbench/tracer.py patches pipeline.jaccard by name
    LifecycleThresholds,
    classify_events,
    flow_jaccard,
    inherit_labels,
    jaccard,
)
from .metrics import (
    assortativity_details,
    modularity,
    temporal_degree_correlation_details,
)
from .output import (
    BoundaryReport,
    RunReport,
    SnapshotMetrics,
    export_temporal_csv,
    write_report,
)
from .sequences import (
    CommunitySpec,
    DegreeSpec,
    SamplerConfig,
    fix_parity,
    load_sequences,
    sample_degrees,
    sample_sizes,
    split_degrees,
)
from .transition import (
    build_flow_system,
    kernel_basis,
    materialize_flow,
    seed_pool,
    taboo_search,
    variation_of_information,
)


@dataclass
class TransitionPlan:
    """Death/birth bookkeeping that balances populations across a boundary."""

    deaths: int
    births: int
    kill_ids: tuple[int, ...]
    sizes_from_augmented: tuple[int, ...]
    sizes_to_augmented: tuple[int, ...]
    birth_row: int | None
    death_col: int | None


def plan_transition(
    sizes_t: CommunitySpec,
    sizes_t1: CommunitySpec,
    kill_ids,
    rng: np.random.Generator,
    alive_ids,
) -> TransitionPlan:
    """Balance node counts across a boundary.

    Deaths are the explicit kill set plus, depending on the sign of
    ``sum(S_t) - sum(S_t+1) - |O|``, additional kills drawn uniformly from
    ``alive_ids`` outside the kill set; the opposite sign births new nodes
    instead.  The plan's ``kill_ids`` therefore name all ``deaths``.  The
    death-adjustment community is appended to the t+1 side and the
    birth-adjustment community to the t side (only when non-empty).
    """
    kill_ids = tuple(sorted(set(int(x) for x in kill_ids)))
    n_t, n_t1 = sizes_t.node_count, sizes_t1.node_count
    if len(kill_ids) > n_t:
        raise ConfigurationError(f"kill set of {len(kill_ids)} exceeds the population {n_t}")
    gap = n_t1 - (n_t - len(kill_ids))
    births = max(0, gap)
    extra = max(0, -gap)
    deaths = len(kill_ids) + extra
    pool = sorted(set(alive_ids) - set(kill_ids))
    if len(kill_ids) + len(pool) < deaths:
        raise ConfigurationError("not enough alive nodes to draw the extra kills from")
    if extra:
        picks = rng.choice(len(pool), size=extra, replace=False)
        kill_ids = tuple(sorted(kill_ids + tuple(pool[int(p)] for p in picks)))
    sizes_from = sizes_t.sizes + ((births,) if births else ())
    sizes_to = sizes_t1.sizes + ((deaths,) if deaths else ())
    return TransitionPlan(
        deaths=deaths,
        births=births,
        kill_ids=kill_ids,
        sizes_from_augmented=sizes_from,
        sizes_to_augmented=sizes_to,
        birth_row=len(sizes_t.sizes) if births else None,
        death_col=len(sizes_t1.sizes) if deaths else None,
    )


@dataclass
class RunConfig:
    """Everything a reproducible run needs."""

    timesteps: int
    seed: int
    community_cfg: SamplerConfig | None = None
    degree_cfg: SamplerConfig | None = None
    community_count: int = 4
    sequence_file: str | None = None
    kills: object = 0  # int per boundary, or a per-boundary list of int / id lists
    pairing_shape: ShapeParams = field(default_factory=ShapeParams)
    temporal_shape: ShapeParams = field(default_factory=ShapeParams)
    thresholds: LifecycleThresholds = field(default_factory=LifecycleThresholds)
    no_search: bool = False
    interactive: bool = False
    max_sequence_retries: int = 10
    on_disconnected: str = "warn"  # or "abort"
    repair_budget_factor: int = DEFAULT_REPAIR_BUDGET_FACTOR
    output_dir: str | None = None

    def __post_init__(self):
        if self.timesteps < 1:
            raise ConfigurationError("timesteps must be >= 1")
        if self.sequence_file is None:
            if self.community_cfg is None or self.degree_cfg is None:
                raise ConfigurationError(
                    "either a sequence file or community and degree sampler configs are required"
                )
            if self.community_count < 1:
                raise ConfigurationError("community_count must be >= 1")
        if self.on_disconnected not in ("warn", "abort"):
            raise ConfigurationError("on_disconnected must be 'warn' or 'abort'")
        counts = self.kills if isinstance(self.kills, (list, tuple)) else [self.kills]
        if any(isinstance(x, int) and x < 0 for x in counts):
            raise ConfigurationError("random kill counts must be >= 0")
        if self.repair_budget_factor < 0:
            raise ConfigurationError("repair_budget_factor must be >= 0")
        if self.max_sequence_retries < 1:
            raise ConfigurationError("max_sequence_retries must be >= 1")

    def echo(self) -> dict:
        """Every field of the config, nested configs included, for report.json.

        ``output_dir`` is left out and ``sequence_file`` is replaced by the
        sha256 of the file's contents: where a run reads and writes does not
        change what it produces.
        """
        out = asdict(self)
        del out["output_dir"]
        if self.sequence_file is not None:
            with open(self.sequence_file, "rb") as fh:
                out["sequence_file"] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        return out


@dataclass
class RunResult:
    snapshots: list[Snapshot]
    report: RunReport
    output_dir: str | None = None


def _kills_for_boundary(cfg: RunConfig, boundary: int):
    """Resolve the kill spec for boundary t -> t+1 into (explicit ids, random count)."""
    spec = cfg.kills
    if isinstance(spec, (list, tuple)) and spec and isinstance(spec[0], (list, tuple, int)):
        if len(spec) <= boundary:
            raise ConfigurationError("kill list shorter than the number of boundaries")
        spec = spec[boundary]
    if isinstance(spec, int):
        return (), spec
    return tuple(int(x) for x in spec), 0


def _draw_sequences(cfg: RunConfig, rng: np.random.Generator) -> tuple[CommunitySpec, DegreeSpec]:
    """One sampler-mode draw of a timestep's sequences, not yet gated."""
    deg = cfg.degree_cfg
    sizes = sample_sizes(cfg.community_cfg, cfg.community_count, rng)
    total = sample_degrees(deg, sizes.node_count, rng)
    spec = split_degrees(total, deg.mix_ratio, deg.mix_mode, deg.rounding, rng)
    return sizes, fix_parity(spec, rng, (deg.minimum, deg.maximum))


def _snapshot_metrics(snap: Snapshot) -> SnapshotMetrics:
    assort, degenerate = assortativity_details(snap)
    return SnapshotMetrics(
        t=snap.t,
        nodes=snap.node_count,
        links=snap.link_count,
        communities=snap.community_count,
        assortativity=assort,
        assortativity_degenerate=degenerate,
        modularity=modularity(snap),
        wiring_repairs=snap.wiring_repairs,
        disconnected_communities=list(snap.disconnected_communities),
    )


@dataclass
class _State:
    """What the next timestep needs from the last one."""

    snap: Snapshot
    sizes: CommunitySpec
    next_id: int  # node ids are never recycled
    next_label: int  # neither are community labels


@dataclass
class _Moves:
    """One boundary's transition: the kill plan, the searched flow and every node's target."""

    plan: TransitionPlan
    flow: np.ndarray
    pool_vi: list[float]
    surviving: dict[int, int]  # node id -> community at the new timestep


def _plan_moves(cfg: RunConfig, rng, prev: _State, sizes_t1: CommunitySpec, t: int) -> _Moves:
    """Plan the kills into timestep ``t``, search the flow and materialize it into node moves."""
    snap = prev.snap
    explicit_ids, random_count = _kills_for_boundary(cfg, t - 1)
    alive = sorted(snap.nodes)
    bad = [nid for nid in explicit_ids if nid not in snap.nodes]
    if bad:
        raise ConfigurationError(f"boundary {t - 1}: kill ids {bad} are not alive at T{t - 1}")
    kill_ids = set(explicit_ids)
    if random_count:
        pool = [nid for nid in alive if nid not in kill_ids]
        if random_count > len(pool):
            raise ConfigurationError(f"boundary {t - 1}: cannot kill {random_count} nodes")
        picks = rng.choice(len(pool), size=random_count, replace=False)
        kill_ids |= {pool[int(p)] for p in picks}
    plan = plan_transition(prev.sizes, sizes_t1, sorted(kill_ids), rng, alive_ids=alive)

    k_real, l_real = len(prev.sizes), len(sizes_t1)
    victims = set(plan.kill_ids)
    lower = np.zeros((len(plan.sizes_from_augmented), len(plan.sizes_to_augmented)), np.int64)
    if plan.death_col is not None:
        lower[:k_real, plan.death_col] = [len(g & victims) for g in snap.clustering]
    system = build_flow_system(plan.sizes_from_augmented, plan.sizes_to_augmented, lower=lower)
    pool_flows = seed_pool(system)
    pool_vi = [variation_of_information(u) for u in pool_flows]
    flow = pool_flows[int(np.argmin(pool_vi))]
    if not cfg.no_search:
        flow = taboo_search(system, flow, kernel_basis(system))

    # concrete node moves: survivors only; the pinned death column is the kill set
    groups = [sorted(g - victims) for g in snap.clustering]
    moved = materialize_flow(flow[:k_real, :l_real], groups, rng)
    surviving: dict[int, int] = {}
    for i in range(k_real):
        for j in range(l_real):
            for nid in moved[i][j]:
                surviving[nid] = j
    if plan.birth_row is not None:
        nid = prev.next_id
        for j in range(l_real):
            for _ in range(int(flow[plan.birth_row, j])):
                surviving[nid] = j
                nid += 1
    return _Moves(plan, flow, pool_vi, surviving)


def _record_boundary(cfg: RunConfig, prev: _State, moves: _Moves, snap: Snapshot, report) -> int:
    """Check the realized contingency, label and report the boundary.

    Returns the next unused community label.
    """
    old, plan, flow = prev.snap, moves.plan, moves.flow
    t = old.t
    k_real, l_real = len(prev.sizes), snap.community_count

    # the realized contingency, births (row k_real) and deaths (column l_real)
    # included, must reproduce the flow exactly
    recount = np.zeros((k_real + 1, l_real + 1), dtype=np.int64)
    for nid, node in old.nodes.items():
        after = snap.nodes.get(nid)
        recount[node.community, l_real if after is None else after.community] += 1
    for nid, node in snap.nodes.items():
        if nid not in old.nodes:
            recount[k_real, node.community] += 1
    padded = np.pad(flow, ((0, k_real + 1 - flow.shape[0]), (0, l_real + 1 - flow.shape[1])))
    if not np.array_equal(recount, padded):
        raise AssertionError("realized contingency deviates from the searched flow")

    events = classify_events(
        flow, cfg.thresholds, death_col=plan.death_col, birth_row=plan.birth_row
    )
    snap.community_labels, next_label = inherit_labels(
        flow_jaccard(flow, plan.birth_row, plan.death_col),
        old.community_labels,
        cfg.thresholds.continuation,
        prev.next_label,
    )

    corr, corr_degenerate = temporal_degree_correlation_details(old, snap)
    row_labels = [str(x) for x in old.community_labels] + (
        ["births"] if plan.birth_row is not None else []
    )
    col_labels = [str(x) for x in snap.community_labels] + (
        ["deaths"] if plan.death_col is not None else []
    )
    report.boundaries.append(
        BoundaryReport(
            t_from=t,
            t_to=t + 1,
            vi=variation_of_information(flow),
            contingency=[[int(x) for x in row] for row in flow],
            row_labels=row_labels,
            col_labels=col_labels,
            temporal_degree_correlation=corr,
            correlation_degenerate=corr_degenerate,
            deaths=plan.deaths,
            births=plan.births,
            seed_pool_vi=moves.pool_vi,
            events=events,
        )
    )
    return next_label


def _step(cfg: RunConfig, rng, prev: _State | None, sizes, spec, t: int, report) -> _State:
    """Build timestep ``t`` from the previous one (``None`` bootstraps T0) and report it.

    Raises ``GraphabilityError`` before anything is recorded when the gated
    sequences cannot be assembled, so that the caller may draw again.
    """
    if prev is None:
        moves, placement = None, {}
    else:
        moves = _plan_moves(cfg, rng, prev, sizes, t)
        placement = dict(
            surviving=moves.surviving,
            prev_degrees={
                nid: prev.snap.nodes[nid].degree
                for nid in moves.surviving
                if nid in prev.snap.nodes
            },
        )
    snap = assemble_snapshot(
        t,
        sizes,
        spec,
        rng,
        pairing_shape=cfg.pairing_shape,
        temporal_shape=cfg.temporal_shape,
        repair_budget_factor=cfg.repair_budget_factor,
        **placement,
    )
    if snap.disconnected_communities and cfg.on_disconnected == "abort":
        raise GraphabilityError(
            f"communities {snap.disconnected_communities} are internally disconnected"
        )
    if prev is None:
        state = _State(snap, sizes, snap.node_count, snap.community_count)
    else:
        next_label = _record_boundary(cfg, prev, moves, snap, report)
        state = _State(snap, sizes, prev.next_id + moves.plan.births, next_label)
    report.snapshots.append(_snapshot_metrics(snap))
    return state


def run(cfg: RunConfig) -> RunResult:
    """Execute the full generation loop; identical configs give identical outputs."""
    rng = np.random.default_rng(cfg.seed)
    steps = None
    if cfg.sequence_file is not None:
        steps = load_sequences(cfg.sequence_file)
        if len(steps) < cfg.timesteps:
            raise ConfigurationError(
                f"sequence file provides {len(steps)} timesteps, the run needs {cfg.timesteps}"
            )
    # interactive sampling draws a timestep again when its sequences fail the
    # gate or cannot be assembled; batch mode and sequence files stop at once
    draws = cfg.max_sequence_retries if cfg.interactive and steps is None else 1
    report = RunReport(seed=cfg.seed, config=cfg.echo())
    snapshots: list[Snapshot] = []
    state = None
    for t in range(cfg.timesteps):
        failures: list[str] = []
        for _ in range(draws):
            sizes, spec = steps[t] if steps is not None else _draw_sequences(cfg, rng)
            gate = check_graphable(sizes, spec)
            if not gate.ok:
                failures.append(gate.reason)
                continue
            try:
                state = _step(cfg, rng, state, sizes, spec, t, report)
                break
            except GraphabilityError as exc:
                failures.append(str(exc))
        else:
            raise GraphabilityError.exhausted(t, "sequence draw", failures)
        snapshots.append(state.snap)

    output_dir = None
    if cfg.output_dir is not None:
        output_dir = cfg.output_dir
        export_temporal_csv(snapshots, output_dir)
        write_report(report, output_dir)
    return RunResult(snapshots=snapshots, report=report, output_dir=output_dir)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def load_run_config(path, overrides=None) -> RunConfig:
    """Read a RunConfig from an INI-style key/value file (see README)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    overrides = overrides or {}

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    run_sec = section("run")
    sampler_cfgs = {}
    for name in ("communities", "degrees"):
        sec = section(name)
        if sec:
            try:
                sampler_cfgs[name] = SamplerConfig(
                    family=sec.get("family", "uniform"),
                    minimum=int(sec.get("min", 1)),
                    maximum=int(sec.get("max", 1)),
                    param=float(sec.get("param", 1.0)),
                    mix_ratio=float(sec.get("mix_ratio", 0.5)),
                    mix_mode=sec.get("mix_mode", "fixed"),
                    rounding=sec.get("rounding", "stochastic"),
                )
            except ValueError as exc:
                raise ConfigurationError(f"[{name}] section: {exc}") from None
    shapes = section("shapes")
    life = section("lifecycle")
    timesteps = overrides.get("timesteps", run_sec.get("timesteps"))
    if timesteps is None:
        raise ConfigurationError(f"{path}: [run] timesteps is required")
    try:
        cfg = RunConfig(
            timesteps=int(timesteps),
            seed=int(overrides.get("seed", run_sec.get("seed", 0))),
            community_cfg=sampler_cfgs.get("communities"),
            degree_cfg=sampler_cfgs.get("degrees"),
            community_count=int(section("communities").get("count", 4))
            if section("communities")
            else 4,
            sequence_file=run_sec.get("sequence_file") or None,
            kills=int(run_sec.get("kills", 0)),
            pairing_shape=ShapeParams(
                float(shapes.get("pairing_alpha", 1.0)), float(shapes.get("pairing_beta", 1.0))
            ),
            temporal_shape=ShapeParams(
                float(shapes.get("temporal_alpha", 1.0)),
                float(shapes.get("temporal_beta", 1.0)),
            ),
            thresholds=LifecycleThresholds(
                continuation=float(life.get("continuation", 0.3)),
                share=float(life.get("share", 0.1)),
                size_dead_band=float(life.get("size_dead_band", 0.02)),
            ),
            no_search=run_sec.get("no_search", "false").strip().lower()
            in ("1", "true", "yes"),
            interactive=run_sec.get("interactive", "false").strip().lower()
            in ("1", "true", "yes"),
            max_sequence_retries=int(run_sec.get("max_sequence_retries", 10)),
            repair_budget_factor=int(
                run_sec.get("repair_budget_factor", DEFAULT_REPAIR_BUDGET_FACTOR)
            ),
            on_disconnected=run_sec.get("on_disconnected", "warn"),
            output_dir=overrides.get("output", run_sec.get("output")) or None,
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad config value: {exc}") from None
    return cfg
