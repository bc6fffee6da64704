"""One pass of a benchmark workload, in a fresh process; prints its result as one JSON line.

    python3 perfbench/worker.py ROOT WORKLOAD SEED {setup,pass,trace} RUN_ID [SPANS]

`setup` stops once graphcoh is imported and the workload's inputs are
built.  `pass` then runs every item untraced.  `trace` runs them with the
layer wrappers of tracer.py installed and writes the spans to SPANS.
`ready` in the result is a `time.monotonic()` reading, which the parent
compares with its own reading taken before it started this process.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
MESSAGE_CHARS = 400


def import_package(root: Path):
    """Import graphcoh from ROOT/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import graphcoh

    if Path(graphcoh.__file__).resolve().parent != src / "graphcoh":
        raise SystemExit(f"graphcoh was imported from {graphcoh.__file__}, not from {src}")
    return graphcoh


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def run_items(items, tracer=None) -> tuple[float, list[dict]]:
    """Run and check every item; wall time runs from the first call to the last check."""
    results = []
    t0 = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.begin_item(index)
        start = time.perf_counter()
        try:
            output = item.run(item)
            message = None
            if output != item.expected:
                message = f"output {json.dumps(output)} differs from {json.dumps(item.expected)}"
        except Exception as exc:  # a refusal or a crash fails the item, not the pass
            message = "".join(traceback.format_exception_only(exc)).strip()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_item()
        results.append({
            "name": item.name,
            "seconds": seconds,
            "ok": message is None,
            "message": message[:MESSAGE_CHARS] if message else None,
            "report_bytes": item.report_bytes,
        })
    return time.perf_counter() - t0, results


def main(argv: list[str]) -> int:
    root, workload, seed, mode, run_id = Path(argv[1]), argv[2], int(argv[3]), argv[4], argv[5]
    import_package(root)
    import numpy
    import workloads

    items = workloads.WORKLOADS[workload](load_reference(), seed).items()
    result = {"ready": time.monotonic(), "python": platform.python_version(),
              "numpy": numpy.__version__}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer(run_id)
            tracer.install()
        wall, item_results = run_items(items, tracer)
        result.update(
            wall_s=wall,
            items=item_results,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            wrappers=len(tracer.wrapped) if tracer else 0,
        )
        if tracer is not None:
            report_bytes = sum(r["report_bytes"] for r in item_results)
            result["layers"] = tracer.metrics(wall, report_bytes)
            result["missing_wrappers"] = tracer.missing
            tracer.write_spans(argv[6])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
