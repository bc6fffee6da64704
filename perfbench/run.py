"""graphcoh benchmark: time one workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload {table,cocycles,closure} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the graphcoh in that
checkout's `src`.  Every pass of the workload runs in a fresh worker
process (cold caches, PYTHONHASHSEED fixed, GRAPHCOH_CAP unset, one BLAS
thread), checks every item's output against perfbench/reference.json and
reports its wall time, slowest item and peak RSS.  Passes repeat until
`--seconds` have elapsed; the run reports their medians.  Set-up time is
also sampled in a few processes before each pass that stop once the
inputs are built.

With `--trace 1` one more pass runs with the layer wrappers of tracer.py
installed; the untraced passes never install them.  The last line of
standard output is the result: `correct`, `attempted`, `failed` and the
metrics (end-to-end ones untraced, per-layer ones traced).  The line
before it is the full record: machine, seed, every item, the failure
messages, quartiles and sample counts, and the seed commit's baseline
figures.  The record is also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("table", "cocycles", "closure")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_SAMPLES = 3  # set-up-only processes before each pass
WORKER_TIMEOUT_S = 150
# Start no further pass once this much of the run's time limit is used.
RUN_BUDGET_S = 120


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRAPHCOH_CAP", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, mode: str, run_id: str, spans: Path | None = None) -> dict:
    """Run one worker and return its result; `setup_s` runs from process start to ready."""
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), str(ROOT), workload, str(seed),
           mode, run_id]
    if spans is not None:
        cmd.append(str(spans))
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - started
    return result


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's own .git, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphcoh").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphcoh" / "__init__.py").is_file():
        print(f"no graphcoh package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    began = time.monotonic()
    setups, passes = [], []
    while not passes or (time.monotonic() - began < args.seconds
                         and time.monotonic() - began + passes[-1]["wall_s"] < RUN_BUDGET_S):
        setups += [spawn(args.workload, args.seed, "setup", run_id) for _ in range(SETUP_SAMPLES)]
        passes.append(spawn(args.workload, args.seed, "pass", run_id))
    traced = None
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        traced = spawn(args.workload, args.seed, "trace", run_id,
                       spans=RESULTS / f"{run_id}.spans.json.gz")

    runs = passes + ([traced] if traced else [])
    items = [item for run in runs for item in run["items"]]
    failed = [item for item in items if not item["ok"]]
    wall = quartiles([p["wall_s"] for p in passes])
    summary = {
        "wall_s": wall,
        "setup_s": quartiles([r["setup_s"] for r in setups + runs]),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in passes]),
        "max_item_s": quartiles([max(i["seconds"] for i in p["items"]) for p in passes]),
        "fail_ratio": len(failed) / len(items),
    }
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / wall["median"] - 1
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit_of(name)}
                   for name in ("wall_s", "setup_s", "peak_rss_mb", "max_item_s")}

    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": passes[0]["python"],
            "numpy": passes[0]["numpy"],
        },
        "commit": commit(),
        "source_sha256": source_digest(),
        "summary": summary,
        "passes": [{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "wrappers")}
                   for p in passes],
        "traced": ({k: traced[k] for k in ("wall_s", "wrappers", "missing_wrappers")}
                   if traced else None),
        "items": [{k: i[k] for k in ("name", "seconds", "ok", "message")} for i in items],
        "baseline": json.loads((HERE / "baseline.json").read_text()),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
