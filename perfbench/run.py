#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ``src/``
and the metric lists come from ``BENCHMARK.json``.  Workloads:

* ``products-edit-loop`` — the analyst's cold run, warm re-matches, rule
  edits and refinement (:mod:`edit_loop`);
* ``restaurants-stream`` — record deltas, a few rule edits, checkpoints
  (:mod:`stream`);
* ``service-mixed`` — two HTTP clients against a live service
  (:mod:`service_mix`; not in BENCHMARK.json, see README.md);
* ``all`` — the three in sequence, reporting every named metric (for
  people; the JSON contract below is per workload).

Human-readable tables go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` slots of BENCHMARK.json,
with ``--trace 1`` its ``per_layer`` metrics (0 where the workload does
not exercise a layer).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import Report, median, percentile, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {
    "products-edit-loop": "edit_loop",
    "restaurants-stream": "stream",
    "service-mixed": "service_mix",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def named_metrics(module, report):
    """Reduce a workload's raw samples to its named metrics."""
    named = {}
    for name, key, reducer, unit in module.NAMED:
        values = report.samples[key][1]
        value = median(values) if reducer == "median" else percentile(values, reducer)
        q1, _, q3 = quartiles(values)
        named[name] = (unit, value, len(values), q1, q3)
    return named


def run_workload(name, args, spec):
    # Imported here: workload modules import the program, which needs the
    # source path main() adds.
    module = importlib.import_module(WORKLOADS[name])
    report = Report(name)
    module.run(args, report)
    named = named_metrics(module, report)
    print(report.render(named), flush=True)
    if args.trace == 1:
        metrics = {
            entry["name"]: {
                "value": report.layers.get(entry["name"], 0.0),
                "unit": entry["unit"],
            }
            for entry in spec["per_layer"]
        }
    else:
        metrics = {}
        for entry in spec["end_to_end"]:
            named_name, scale = module.SLOTS.get(entry["name"], (entry["name"], 1.0))
            metrics[entry["name"]] = {
                "value": named[named_name][1] * scale,
                "unit": entry["unit"],
            }
    return report, named, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    os.chdir(ROOT)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        report, named, workload_metrics = run_workload(name, args, spec)
        attempted += report.attempted
        failed += report.failed
        if args.workload == "all":
            metrics.update(
                {f"{name}.{key}": {"value": value[1], "unit": value[0]}
                 for key, value in named.items()}
            )
        else:
            metrics = workload_metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
