"""Command line: ``python -m bench run`` and ``python -m bench compare``.

Run from the repository root.  ``src`` is put on the import path here,
so ``PYTHONPATH=src`` is optional; without the ``src`` tree the
benchmark exits with status 2 before printing any result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from bench import compare as comparing
    from bench.metrics import catalogue
    from bench.runner import run_session, write_record
    from bench.workloads import WORKLOADS
except ImportError as exc:  # no src tree: nothing to measure
    print(f"bench: cannot import the system under test: {exc}", file=sys.stderr)
    sys.exit(2)

#: Which sample count stands behind each end-to-end metric.
SAMPLE_OF = {
    "setup_s": "setups",
    "read_to_fix_ms_p50": "read_to_fix",
    "read_to_fix_ms_p90": "read_to_fix",
    "within_30cm_ratio": "targets",
    "located_ratio": "targets",
}


def _print_run(run: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(
        f"== {run['workload']}  seed {run['seed']}  "
        f"{'traced' if run['trace'] else 'untraced'}  {run['seconds']:g} s"
        f"{'  (smoke)' if run['smoke'] else ''}"
    )
    samples = run["samples"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        count = samples.get(SAMPLE_OF.get(name, "read_to_fix"), 0)
        print(
            f"  {name:<22} {run['e2e'][name]:>12.4f} {metric['unit']:<8} "
            f"n={count}"
        )
    if "per_layer" in run:
        print(f"  -- per layer (traced phase, {samples['traced_fixes']} fixes)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            print(f"  {name:<40} {run['per_layer'][name]:>12.4f} {metric['unit']}")
    print(
        f"  attempted {run['attempted']}  failed {run['failed']}  "
        f"correct {run['correct']}  valid {run['valid']}"
    )
    for problem in run["problems"]:
        print(f"  problem: {problem}")


def _result_line(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    line: Dict[str, Any] = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }
    metrics: Dict[str, Any] = {}
    if len(runs) == 1:
        run = runs[0]
        groups = [("per_layer", "per_layer")] if run["trace"] else [("end_to_end", "e2e")]
        for group, key in groups:
            for metric in spec[group]:
                metrics[metric["name"]] = {
                    "value": run[key][metric["name"]],
                    "unit": metric["unit"],
                }
    line["metrics"] = metrics
    return line


def cmd_run(args: argparse.Namespace) -> int:
    spec = catalogue()
    names = args.workload or list(WORKLOADS)
    traced = args.trace != 0
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
        if args.trace is None:
            seconds *= 2  # a full-length phase untraced, then traced
    out_dir = Path(args.out) if args.out else ROOT / "bench" / "out"
    runs = []
    for name in names:
        for repeat in range(args.repeat):
            run = run_session(name, args.seed + repeat, seconds, traced, args.smoke)
            runs.append(run)
            _print_run(run, spec)
            if not run["valid"]:
                print(
                    f"  warning: generator lag p95 "
                    f"{run['generator_lag_ms_p95']:.2f} ms exceeds 5 ms; "
                    "this run's latencies are invalid",
                    file=sys.stderr,
                )
    command = ["python", "-m", "bench", *sys.argv[1:]]
    path = write_record(runs, out_dir, args.smoke, command)
    print(f"record: {path}")
    line = _result_line(runs, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_compare(args: argparse.Namespace) -> int:
    if "--" not in args.records:
        print("bench compare: usage: BASE.json... -- NEW.json...", file=sys.stderr)
        return 2
    split = args.records.index("--")
    try:
        base = comparing.load(args.records[:split])
        new = comparing.load(args.records[split + 1 :])
        rows = comparing.compare(base, new, catalogue()["end_to_end"])
    except (comparing.CompareError, OSError, ValueError, KeyError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    print(comparing.render(rows))
    return 1 if comparing.failed(rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and write a record")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeat", type=int, default=1,
                     help="sessions per workload, seeds SEED..SEED+N-1")
    run.add_argument("--seconds", type=float,
                     help="measured seconds per session (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: untraced only; 1: untraced then traced halves")
    run.add_argument("--smoke", action="store_true",
                     help="tiny inputs and 1 s sessions; records marked smoke")
    run.add_argument("--out", help="record directory (default bench/out)")
    run.set_defaults(handler=cmd_run)
    comp = commands.add_parser("compare", help="compare two sets of records")
    comp.add_argument("records", nargs=argparse.REMAINDER)
    comp.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
