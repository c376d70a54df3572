"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.  The
run generates the workload's inputs from the seed, measures set-up time in
fresh processes, runs the job list as a closed loop with one client in a
fresh child process, checks every saved output against an independent
reference, and prints one JSON result as the last line of stdout:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs an untraced
child and then a traced child for half the time each, asserts that their
stdout is byte-identical job by job, and reports the per-layer metrics.
A line before the result summarises sample counts, failures with their
causes, and how many stdout digests differ from `perfbench/baseline.json`.

Every time is scaled to a reference host speed.  The children time a fixed
pure-Python loop (`child.probe`) between jobs and around each import; a
latency is multiplied by `REFERENCE_PROBE_S` over the mean of the probes just
before and just after it.  When other tenants slow the whole host, probe and
job slow together and the ratio stays put; a change to the program moves the
job and not the probe.  The report line keeps the unscaled figures too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
# the probe's time on the baseline machine when its host is quiet (medians
# over a run ranged 6.3-11 ms there); scaled times read as seconds on that
# machine at that speed
REFERENCE_PROBE_S = 0.007
WORKDIR = ROOT / ".perfbench_work"


def nearest_rank(samples, p):
    """The p-th percentile by nearest rank."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_child(args, timeout):
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    env = {k: v for k, v in os.environ.items() if k != "ANTIPODE_SPECTRUM_THREADS"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:1]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return proc.stdout


def scale(seconds, probes):
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


def measure_setup():
    """Median scaled import time of antipode_spectrum.cli over fresh
    processes; one discarded import first, so bytecode caches are warm as
    for a user."""
    run_child(["--import-only"], timeout=30)
    times = []
    for _ in range(SETUP_SAMPLES):
        sample = json.loads(run_child(["--import-only"], timeout=30))
        times.append(scale(sample["setup_s"], sample["probes"]))
    return statistics.median(times), times


def run_workload(jobs_file, out_dir, seconds, seed, trace=False, min_passes=2):
    out_dir.mkdir()
    args = ["--jobs", str(jobs_file), "--out", str(out_dir), "--seconds", str(seconds),
            "--seed", str(seed), "--min-passes", str(min_passes)]
    if trace:
        args.append("--trace")
    run_child(args, timeout=seconds + 60)
    result = json.loads((out_dir / "result.json").read_text())
    result["out_dir"] = str(out_dir)
    return result


def assess(jobs, result, root):
    """Check each job's saved warm-up output; returns {job id: cause of failure}."""
    import check

    failures = {}
    for job in jobs:
        first = result["first"][job["id"]]
        if first["error"] and first["exit"] is None:
            failures[job["id"]] = first["error"].strip().splitlines()[-1]
            continue
        text = (Path(result["out_dir"]) / f"{job['id']}.out").read_text()
        cause = check.check_job(job, first["exit"], text, root)
        if cause:
            stderr = first["error"].strip().splitlines()
            failures[job["id"]] = f"{cause}: {stderr[-1]}" if stderr else cause
        elif job["id"] in result["diverged"]:
            failures[job["id"]] = result["diverged"][job["id"]]
    return failures


def count_failed(result, failures):
    runs = {jid: 1 + len(t) for jid, t in result["job_times"].items()}
    return sum(runs.values()), sum(runs[jid] for jid in failures)


def baseline_digests(workload, seed):
    path = HERE / "baseline.json"
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    return data.get("workloads", {}).get(workload, {}).get("digests", {}).get(str(seed), {})


def job_medians(result, scaled=True):
    """Each job's median latency over the timed passes, scaled by the probes
    on either side of each sample unless `scaled` is false."""
    probes = result["probes"]
    medians = {}
    for jid, times in result["job_times"].items():
        if scaled:
            times = [scale(t, probes[i:i + 2])
                     for t, i in zip(times, result["job_probes"][jid])]
        medians[jid] = statistics.median(times)
    return medians


def end_to_end(result, setup_s):
    medians = list(job_medians(result).values())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(medians), "s"),
        "job_p50_s": (nearest_rank(medians, 50), "s"),
        "job_p95_s": (nearest_rank(medians, 95), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "antipode_spectrum" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'antipode_spectrum'} is missing",
              file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    work = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        jobs = gen.generate(args.workload, args.seed, inputs, ROOT)
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps([{"id": j["id"], "argv": j["argv"]} for j in jobs]))
        sys.path.insert(0, str(ROOT / "src"))

        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "jobs": len(jobs)}
        if args.trace:
            half = args.seconds / 2
            plain = run_workload(jobs_file, work / "plain", half, args.seed, min_passes=1)
            traced = run_workload(jobs_file, work / "traced", half, args.seed, True, 1)
            # traced stdout must equal the untraced stdout, which is checked
            mismatched = sorted(j for j, f in traced["first"].items()
                                if f["sha256"] != plain["first"][j]["sha256"]
                                or traced["diverged"].get(j))
            report["traced_stdout_mismatches"] = mismatched
            overhead = sum(job_medians(traced).values()) / sum(job_medians(plain).values())
            values = {k: (v, spans.PER_LAYER[k][2]) for k, v in traced["per_layer"].items()}
            values["trace.overhead_ratio"] = (overhead, "ratio")
            report["passes"] = {"untraced": len(plain["pass_walls"]),
                                "traced": len(traced["pass_walls"])}
        else:
            setup_s, setup_samples = measure_setup()
            plain = run_workload(jobs_file, work / "plain", args.seconds, args.seed)
            traced, mismatched = None, []
            values = end_to_end(plain, setup_s)
            samples = sum(map(len, plain["job_times"].values()))
            report.update(passes=len(plain["pass_walls"]), pass_walls=plain["pass_walls"],
                          job_median_s=job_medians(plain),
                          unscaled_job_median_s=job_medians(plain, scaled=False),
                          probe_median_s=statistics.median(plain["probes"]),
                          job_samples=samples, setup_samples=setup_samples)

        failures = assess(jobs, plain, ROOT)
        attempted, failed = count_failed(plain, failures)
        if traced is not None:
            traced_failures = {j: failures.get(j, "traced stdout differs from untraced stdout")
                               for j in set(failures) | set(mismatched)}
            a, n = count_failed(traced, traced_failures)
            attempted, failed = attempted + a, failed + n
            failures.update(traced_failures)

        digests = {j: f["sha256"] for j, f in plain["first"].items()}
        base = baseline_digests(args.workload, args.seed)
        report["digests"] = digests
        report["digests_compared"] = sum(j in base for j in digests)
        report["digests_changed"] = sorted(j for j in digests if j in base and base[j] != digests[j])
        report["failures"] = failures
        print(json.dumps({"perfbench_report": report}, sort_keys=True))
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
