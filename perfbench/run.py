"""Lake benchmark entry point.

    python3 perfbench/run.py --workload {bulk_ingest,read_only,read_write}
        --seed N --seconds S --trace {0,1}

Run from the repository root: the program under test is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it carries run details: the workload's own named figures with
units and, traced, the traced end-to-end metrics, so tracing overhead can
be computed. Scratch data lives under
``.bench_build/perfbench`` and is removed on exit. Exit status is 0 only
when the run completed and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workloads and metrics, with their units, come from here only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: Python randomizes string hashing per process, and with it the layout of
#: every dict and set: identical set-up and ingest work then took up to a
#: third longer in one process than in another. A fixed hash seed makes
#: runs of the same code comparable.
HASH_SEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import source_digest
    from layers import Tracer
    from workloads import WORKLOADS, Run

    scratch = ROOT / ".bench_build" / "perfbench"
    work = scratch / f"run-{os.getpid()}"
    tracer = Tracer().install() if args.trace else None
    try:
        outcome = WORKLOADS[args.workload](
            Run(
                seed=args.seed,
                seconds=args.seconds,
                work=work,
                digests=scratch / "answer_digests.json",
                source=source_digest(SRC, HERE),
                tracer=tracer,
            )
        )
    except Exception:  # noqa: BLE001 - a crashed run prints no result
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    def reported(values: dict, kind: str) -> dict:
        return {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in SPEC[kind]
        }

    end_to_end = reported(outcome.metrics, "end_to_end")
    detail = dict(
        outcome.detail,
        figures={
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.figures.items()
        },
        problems=outcome.problems,
    )
    if tracer is not None:
        detail["traced_end_to_end"] = end_to_end
        metrics = reported(outcome.layers, "per_layer")
    else:
        metrics = end_to_end
    correct = not outcome.problems
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
