"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads scale churn flow --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workloads flow --seeds 1-3 --trace 1 --write perfbench/baseline

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
and prints for every metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread ``(Q3 - Q1) / median``.  With ``--write DIR`` it
also stores ``DIR/BENCH_<workload>.json``: the stamp and every run's record,
under ``end_to_end`` or ``per_layer`` depending on ``--trace``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["scale", "churn", "flow"])
    ap.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    ap.add_argument("--seconds", type=int, default=json.loads(BENCHMARK.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="directory for BENCH_<workload>.json")
    args = ap.parse_args(argv)
    section = "per_layer" if args.trace else "end_to_end"
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            record_path = ROOT / ".perfbench" / f"BENCH_{workload}_seed{seed}_trace{args.trace}.json"
            record = json.loads(record_path.read_text())
            runs.append({"seed": seed, "result": result, "record": record})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
        if not runs:
            continue
        names = list(runs[0]["result"]["metrics"])
        summary = {}
        print(f"\n{workload}: {len(runs)} runs, {args.seconds} s each, trace {args.trace}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = dict(summarise(values), unit=runs[0]["result"]["metrics"][name]["unit"])
            s = summary[name]
            print(f"  {name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f}")
        print(f"  attempted {sum(r['result']['attempted'] for r in runs)},"
              f" failed {sum(r['result']['failed'] for r in runs)}\n")
        if args.write:
            out = Path(args.write) / f"BENCH_{workload}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            doc = json.loads(out.read_text()) if out.is_file() else {"workload": workload}
            doc[section] = {
                "stamp": runs[0]["record"]["stamp"],
                "command": "python3 perfbench/spread.py " + " ".join(argv or sys.argv[1:]),
                "seconds": args.seconds,
                "summary": summary,
                "runs": [
                    {k: r["record"].get(k) for k in (
                        "seed", "stamp", "setup_samples_s", "end_to_end", "per_layer",
                        "failures", "units", "traced_wall_s", "correct",
                    )}
                    for r in runs
                ],
            }
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
