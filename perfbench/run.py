"""temponet benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports temponet from ``src/`` there
and writes only under ``.perfbench/``.  Workloads: ``scale``, ``churn`` and
``flow`` (README.md says why).  The command

* sets the inputs up from ``--seed`` several times and reports the median as
  ``setup_s`` (a fresh interpreter importing temponet, plus drawing, gating
  and writing the inputs), checking the set-ups agree byte for byte;
* repeats the workload's unit of work for about ``--seconds`` seconds;
* checks the outputs (CSV round-trip, flow feasibility and pins, search no
  worse than best-of-pool, sha256 digests identical when a unit repeats);
* prints every metric with its unit, then, as the last line, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
  with ``--trace 0``, the per-layer metrics with ``--trace 1``;
* writes ``.perfbench/BENCH_<workload>_seed<n>_trace<t>.json`` and, when
  tracing, the spans to ``.perfbench/spans_<workload>_seed<n>.json``.

With ``--trace 1`` every input runs twice, untraced then traced, so that the
layer numbers come from traced units and ``trace.overhead`` compares the two.
The exit code is 1 when an output check fails and 2 when the checkout holds
no temponet sources.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Seconds speed_probe() takes on the 2-core baseline machine when no other job
# slows it.  Timings are reported at that speed: see speed_probe().
PROBE_REF_S = 0.040
WORKLOADS = ("scale", "churn", "flow")

END_TO_END = {"setup_s": "s", "step_s": "s", "peak_rss_mb": "MB", "vi_mean": "nats"}
# printed beside the end-to-end metrics where the workload has them
SHOWN_UNITS = {
    **END_TO_END,
    "step_wall_s": "s",
    "flow_ms": "ms",
    "links_per_s": "links/s",
    "fail_rate": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return ap.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed = line.partition(" ")
            if packed.strip() == name:
                return sha
    return "unknown"


def stamp(np, temponet) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "temponet": temponet.__version__,
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_import() -> float:
    """Wall seconds for a fresh interpreter to import temponet from this checkout."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import temponet"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work, which runs no temponet code.

    The machine the benchmark runs on may be shared: other jobs slowed every
    unit by up to 1.8x, for minutes at a time.  The benchmark runs this probe
    before and after every unit and reports the unit's seconds multiplied by
    PROBE_REF_S / (mean probe seconds), i.e. at the speed of an idle baseline
    machine.  A change to temponet cannot move the probe.  Raw seconds and
    the factor are kept in the BENCH record.
    """
    t0 = time.perf_counter()
    acc, table, seen = 0, {}, set()
    for i in range(180_000):
        acc += i * i % 7
        table[i & 1023] = acc
        if i % 3 == 0:
            seen.add((i & 4095, acc & 7))
    return time.perf_counter() - t0


def set_up(wl, workload, spec, seed, workdir):
    """Prepare the inputs SETUP_REPEATS times; return (inputs, median seconds, samples).

    Set-up seconds stay wall seconds: mostly process start and imports, they
    varied less between runs than the speed probe did.
    """
    samples, digests, inputs = [], set(), None
    for rep in range(SETUP_REPEATS):
        import_s = time_import()
        t0 = time.perf_counter()
        if workload == "flow":
            prepared = wl.prepare_flows(spec, seed)
            digests.add(wl.flow_digest(prepared))
        else:
            where = os.path.join(workdir, f"inputs{rep}")
            prepared = wl.prepare_runs(spec, seed, where)
            digests.add(wl.input_digest(where))
        samples.append(import_s + time.perf_counter() - t0)
        inputs = inputs or prepared
    if len(digests) != 1:
        raise wl.CheckFailed("set-ups from one seed produced different inputs")
    return inputs, statistics.median(samples), samples


def schedule(n_inputs: int, trace: bool):
    """Unit order as (input index, traced), endless, plus how many units must run.

    Untraced: every input in turn, at least twice over, so that every input's
    digests are compared.  Traced: each input untraced and then traced, with
    matching digests.
    """
    if trace:
        cycle = [(i, flag) for i in range(n_inputs) for flag in (False, True)]
    else:
        cycle = [(i, False) for i in range(n_inputs)]
    return itertools.cycle(cycle), 2 * n_inputs


def measure(wl, workload, spec, inputs, seconds, tracer, workdir):
    """Repeat units for about ``seconds``.

    Returns ([(input index, traced, Outcome)], peak-RSS growth per step of the
    first unit in MB).
    """
    from temponet import SearchConfig

    search_cfg = SearchConfig()
    n_inputs = 1 if workload == "flow" else len(inputs)
    done, checked, digests = [], set(), {}
    rss_before = peak_rss_mb()
    t_start = time.perf_counter()
    probe_before = speed_probe()
    order, min_units = schedule(n_inputs, tracer is not None)
    for idx, traced in order:
        if traced:
            tracer.install()
        try:
            if workload == "flow":
                out = wl.run_flows(inputs, search_cfg, tracer if traced else None)
            else:
                outdir = os.path.join(workdir, "out")
                out = wl.run_pipeline(inputs[idx], spec, outdir, check=idx not in checked)
                if not out.failed:
                    checked.add(idx)
        finally:
            if traced:
                tracer.remove()
        probe_after = speed_probe()
        out.speed = 2 * PROBE_REF_S / (probe_before + probe_after)
        probe_before = probe_after
        if not done:
            rss_growth_mb = (peak_rss_mb() - rss_before) / max(1, out.steps)
        first = digests.setdefault(idx, out.digest)
        if out.digest != first:
            raise wl.CheckFailed(
                f"input {idx}: outputs differ between repetitions of one seed:\n"
                f"  {first}\n  {out.digest}"
            )
        done.append((idx, traced, out))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(o.seconds for _, _, o in done)
        if len(done) >= min_units and elapsed + typical / 2 >= seconds:
            return done, rss_growth_mb


def totals(outcomes):
    seconds = sum(o.seconds for o in outcomes)
    steps = sum(o.steps for o in outcomes)
    return seconds, steps


def end_to_end(workload, outcomes, setup_s):
    """End-to-end metrics from the untraced [(input index, Outcome)].

    ``step_s`` is the median over units of seconds per step, at the baseline
    machine's speed (``speed_probe``), scaled by the share of all unit time
    spent in units that failed: time spent in failed runs counts.
    """
    first: dict[int, object] = {}
    for idx, o in outcomes:
        first.setdefault(idx, o)
    ok = [o for _, o in outcomes if o.steps]
    if not ok:
        raise RuntimeError("every unit failed; no step was produced")
    wasted = sum(o.seconds for _, o in outcomes) / sum(o.seconds for o in ok)
    step_s = statistics.median(o.seconds * o.speed / o.steps for o in ok) * wasted
    vis = [v for idx in sorted(first) for v in first[idx].vis]
    metrics = {
        "setup_s": setup_s,
        "step_s": step_s,
        "peak_rss_mb": peak_rss_mb(),
        "vi_mean": statistics.fmean(vis) if vis else 0.0,
    }
    shown = dict(metrics)
    shown["step_wall_s"] = statistics.median(o.seconds / o.steps for o in ok) * wasted
    if workload == "flow":
        shown["flow_ms"] = 1000.0 * step_s
    else:
        shown["links_per_s"] = sum(o.links for o in ok) / sum(o.seconds * o.speed for o in ok)
    shown["fail_rate"] = sum(o.failed for _, o in outcomes) / sum(o.attempted for _, o in outcomes)
    return metrics, shown


def layer_metrics(tracer, traced, untraced, rss_growth_mb):
    """Per-layer numbers from the traced units; times and counts are per step."""
    t_sec, t_steps = totals(traced)
    u_sec, u_steps = totals(untraced)
    steps = max(1, t_steps)
    busy, calls, selfs = tracer.busy(), tracer.calls(), tracer.self_times()
    counts, raised = tracer.counts, tracer.raised

    def s(name):
        return busy.get(name, 0.0) / steps

    def ratio(a, b):
        return a / b if b else 0.0

    from tracer import POOL_HEURISTICS

    wire_s = busy.get("assembler.wire_inter", 0.0) + busy.get("assembler.wire_intra", 0.0)
    pools = calls.get("transition.seed_pool", 0)
    m = {
        "assembler.wire_inter_s": (s("assembler.wire_inter"), "s"),
        "assembler.wire_intra_s": (s("assembler.wire_intra"), "s"),
        "assembler.wire_links_per_s": (ratio(counts["wire_links"], wire_s), "links/s"),
        "assembler.wire_repairs": (counts["wire_repairs"] / steps, "count"),
        "assembler.assign_s": (s("assembler.assign"), "s"),
        "assembler.assign_calls": (calls.get("assembler.assign", 0) / steps, "count"),
        "assembler.assign_yield": (
            ratio(counts["snapshots"], calls.get("assembler.assign", 0)),
            "ratio",
        ),
        "assembler.parity_s": (s("assembler.parity"), "s"),
        "assembler.failures": (raised.get("assembler.assemble", 0) / steps, "count"),
        "assembler.validate_s": (s("assembler.validate"), "s"),
        "assembler.connectivity_s": (s("assembler.connectivity"), "s"),
        "graphability.check_s": (s("graphability.check"), "s"),
        "graphability.calls": (calls.get("graphability.check", 0) / steps, "count"),
        "transition.seed_pool_s": (s("transition.seed_pool"), "s"),
        "transition.mi_greedy_s": (s("transition.mi_greedy"), "s"),
        "transition.max_chunk_s": (s("transition.max_chunk"), "s"),
    }
    for h in POOL_HEURISTICS:
        m[f"transition.pool_wins.{h}"] = (ratio(counts[f"pool_wins.{h}"], pools), "ratio")
    m.update(
        {
            "transition.taboo_s": (s("transition.taboo"), "s"),
            "transition.taboo_moves": (counts["taboo_moves"] / steps, "count"),
            "transition.vi_gain": (counts["vi_gain"] / steps, "nats"),
            "transition.materialize_s": (s("transition.materialize"), "s"),
            "lifecycle.classify_s": (s("lifecycle.classify"), "s"),
            "lifecycle.jaccard_calls": (calls.get("lifecycle.jaccard", 0) / steps, "count"),
            "lifecycle.jaccard_s": (s("lifecycle.jaccard"), "s"),
            "metrics.snapshot_s": (s("metrics.assortativity") + s("metrics.modularity"), "s"),
            "metrics.temporal_corr_s": (s("metrics.temporal_corr"), "s"),
            "output.export_s": (s("output.export"), "s"),
            "output.report_s": (s("output.report"), "s"),
            "output.bytes": (sum(o.out_bytes for o in traced) / steps, "bytes"),
            "output.export_mb_per_s": (
                ratio(sum(o.csv_bytes for o in traced) / 1e6, busy.get("output.export", 0.0)),
                "MB/s",
            ),
            "sequences.load_s": (s("sequences.load"), "s"),
            "pipeline.self_s": (selfs.get("pipeline.run", 0.0) / steps, "s"),
            "pipeline.rss_mb_per_step": (rss_growth_mb, "MB"),
            "trace.overhead": (
                ratio(t_sec, t_steps) / ratio(u_sec, u_steps) - 1.0 if u_steps and t_steps else 0.0,
                "ratio",
            ),
        }
    )
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "temponet" / "__init__.py").is_file():
        print(f"perfbench: no temponet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import temponet
    import workloads as wl
    from tracer import Tracer

    workload, trace = args.workload, bool(args.trace)
    spec = (wl.TINY if args.tiny else wl.FULL)[workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "tiny": args.tiny,
        "stamp": stamp(np, temponet),
        "spec": repr(spec),
    }
    tracer = Tracer() if trace else None
    correct, problem = True, None
    try:
        inputs, setup_s, setup_samples = set_up(wl, workload, spec, args.seed, str(workdir))
        record["setup_samples_s"] = setup_samples
        done, rss_growth_mb = measure(
            wl, workload, spec, inputs, args.seconds, tracer, str(workdir)
        )
    except (wl.CheckFailed, AssertionError) as exc:
        correct, problem, done = False, f"{type(exc).__name__}: {exc}", []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [(i, o) for i, t, o in done if not t]
    traced = [o for _, t, o in done if t]
    record["units"] = [
        {"input": i, "traced": t, "seconds": o.seconds, "steps": o.steps, "failed": o.failed,
         "speed": o.speed, "digest": o.digest}
        for i, t, o in done
    ]
    record["failures"] = sorted({f for _, _, o in done for f in o.failures})
    attempted = sum(o.attempted for _, _, o in done) or 1
    failed = sum(o.failed for _, _, o in done)
    metrics = {}
    if correct:
        e2e, shown = end_to_end(workload, untraced, setup_s)
        record["end_to_end"] = shown
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        for name, value in shown.items():
            print(f"{name:34s} {value:14.6g} {SHOWN_UNITS[name]}")
        if trace:
            layers = layer_metrics(tracer, traced, [o for _, o in untraced], rss_growth_mb)
            record["per_layer"] = {k: v for k, (v, _) in layers.items()}
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            for name, (value, unit) in layers.items():
                print(f"{name:34s} {value:14.6g} {unit}")
            wall = sum(o.seconds for o in traced)
            tracer.dump(OUT / f"spans_{workload}_seed{args.seed}.json", wall)
            record["traced_wall_s"] = wall
    for failure in record["failures"]:
        print(f"failed: {failure}")
    if problem:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    record["correct"] = correct
    with open(OUT / f"BENCH_{workload}_seed{args.seed}_trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
