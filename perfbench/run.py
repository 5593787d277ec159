"""urbanobs benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload day_default --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ./src and
every file the run writes stays under ./.perfbench_work (removed at the
end) and ./.perfbench_out (result and span files). With --trace 0 the
last line carries the end-to-end metrics of BENCHMARK.json; with
--trace 1 the workload runs untraced first, then again with spans around
every layer boundary, and the last line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sqlite3
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "urbanobs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no urbanobs sources under {src}")
    sys.path.insert(0, str(src))
    import urbanobs
    if Path(urbanobs.__file__).resolve().parent != (src / "urbanobs").resolve():
        sys.exit(f"perfbench: urbanobs imported from {urbanobs.__file__}, not {src}")


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "sqlite": sqlite3.sqlite_version,
            "cpus": os.cpu_count(), "git_commit": git_commit(ROOT), "seed": seed,
            "machine": platform.machine()}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    _import_program()

    import workloads as wl
    from tracing import Hooks, Tracer, layer_metrics, layer_self_seconds

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(wl.WORKLOADS)}")
    run = wl.WORKLOADS[args.workload]
    days = max(wl.MIN_DAYS, round(args.seconds / wl.NOMINAL_DAY_PAIR_S))
    sizes = wl.Sizes(wl.SETUP_REPEATS, days, args.seconds, min_queries=1000)
    # The traced pass repeats the same timed work after one set-up.
    traced_sizes = dataclasses.replace(sizes, setup_repeats=1)

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    # SQLite and tempfile spill into TMPDIR; keep that inside the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    os.environ.pop("URBANOBS_STORE", None)
    out_dir = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    attempted = 0
    try:
        with Hooks() as hooks:
            outcome = run(hooks, work / "untraced", args.seed, sizes)
        attempted += outcome.attempted
        result = {"env": env, "workload": args.workload, "seconds": args.seconds,
                  "end_to_end": outcome.gated,
                  "detail": {k: {"value": v, "unit": u} for k, (v, u) in outcome.detail.items()},
                  "samples": outcome.samples, "info": outcome.info}
        for name, (value, unit) in outcome.detail.items():
            n = next((c for k, c in outcome.samples.items() if name.startswith(k)), None)
            print(f"  {name:<24} {_fmt(value):>12} {unit:<6}" + (f" n={n}" if n else ""))
        print("gated end-to-end metrics:")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<24} {_fmt(outcome.gated.get(m['name'])):>12} {m['unit']}")
        if args.trace:
            tracer = Tracer()
            with Hooks(tracer) as hooks:
                traced = run(hooks, work / "traced", args.seed, traced_sizes)
            attempted += traced.attempted
            layers = layer_metrics(tracer)
            layers["trace.overhead_share"] = traced.main_op_s / outcome.main_op_s - 1.0
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
            result["per_layer"] = layers
            result["layer_self_s"] = layer_self_seconds(tracer)
            result["traced_main_op_s"] = traced.main_op_s
            for name, value in layers.items():
                print(f"  {name:<34} {_fmt(value):>12}")
            for layer, secs in result["layer_self_s"].items():
                print(f"  self {layer:<29} {secs:>12.4f} s")
    except wl.GateFailed as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else outcome.gated
    metrics = {}
    for m in declared:
        value = source.get(m["name"])
        if value is None:
            sys.exit(f"perfbench: {args.workload} measured no {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
