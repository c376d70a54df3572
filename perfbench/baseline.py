"""Aggregate benchmark runs into perfbench/baseline.json.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0 >> runs.log
    ...
    python3 perfbench/baseline.py runs.log [more.log ...]

Each run prints a `perfbench_report` line and then its result line; every
such pair found in the logs is used.  The baseline holds, per workload, the
seeds, the median and quartiles of each metric, the sample counts behind the
job percentiles, and the sha256 of every job's stdout per seed, which
`run.py` compares against on later runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def machine():
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def main(paths):
    runs = []
    for path in paths:
        lines = Path(path).read_text().splitlines()
        for a, b in zip(lines, lines[1:]):
            if a.startswith('{"perfbench_report"') and b.startswith('{"correct"'):
                runs.append((json.loads(a)["perfbench_report"], json.loads(b)))
    workloads = defaultdict(lambda: {"seeds": set(), "metrics": defaultdict(list),
                                     "per_layer": defaultdict(list), "digests": {},
                                     "job_samples": [], "failures": {}})
    for report, result in runs:
        w = workloads[report["workload"]]
        w["seeds"].add(report["seed"])
        w["digests"][str(report["seed"])] = report["digests"]
        for jid, cause in report["failures"].items():
            w["failures"][f"seed {report['seed']}: {jid}"] = cause
        target = w["per_layer"] if report["trace"] else w["metrics"]
        for name, m in result["metrics"].items():
            target[name].append(m["value"])
        if not report["trace"]:
            w["job_samples"].append(report["job_samples"])
    out = {"machine": machine(), "workloads": {}}
    for name, w in sorted(workloads.items()):
        out["workloads"][name] = {
            "seeds": sorted(w["seeds"]),
            "metrics": {k: summarize(v) for k, v in w["metrics"].items()},
            "per_layer_median": {k: statistics.median(v) for k, v in w["per_layer"].items()},
            "job_samples_per_run": statistics.median(w["job_samples"]) if w["job_samples"] else 0,
            "failures": w["failures"],
            "digests": w["digests"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
