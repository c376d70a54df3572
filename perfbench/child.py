"""One benchmark client: a fresh process that imports the program from the
checkout's `src/` and runs a workload's job list as a closed loop.

Each job is an in-process `antipode_spectrum.cli.main(argv)` call with stdout
and stderr captured; the next job starts when the last one returns.  A
warm-up pass, not counted in the metrics, saves each job's stdout for the
correctness checks; timed passes follow until `--seconds` have gone by since
the warm-up began and at least `--min-passes` timed passes are done.  The
time limit is checked before each job, so a run ends within one job of it;
the last pass may be cut short, and only whole passes count as passes.
Between jobs, at most every `PROBE_EVERY_S` seconds, the child times a fixed
loop (`probe`); `run.py` scales each job's latency by the probes around it.
Results go to `<out>/result.json`.

    python3 perfbench/child.py --jobs JOBS.json --out DIR --seconds 10 [--trace]
    python3 perfbench/child.py --import-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_EVERY_S = 0.2


def import_cli():
    """Import the program from the checkout; returns (cli module, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from antipode_spectrum import cli

    elapsed = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "antipode_spectrum":
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    return cli, elapsed


def probe():
    """Seconds for a fixed pure-Python loop of about 10 ms that touches no
    program code.  Its time moves only with the speed the host gives this
    process at the moment."""
    t0 = time.perf_counter()
    d = {}
    x = 0
    for i in range(40000):
        x = (x * 31 + i) % 1000003
        d[i & 1023] = x
    return time.perf_counter() - t0


def run_job(cli, argv):
    """(exit code or None, stdout, error text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc(limit=4)
    dt = time.perf_counter() - t0
    text = out.getvalue()
    if code not in (0, None) and not error:
        error = err.getvalue().strip()[-300:]
    return code, text, error, dt


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-passes", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)

    if args.import_only:
        before = probe()
        _, setup_s = import_cli()
        print(json.dumps({"setup_s": setup_s, "probes": [before, probe()]}))
        return 0
    cli, setup_s = import_cli()

    jobs = json.loads(Path(args.jobs).read_text())
    out_dir = Path(args.out)
    tracer = None
    if args.trace:
        import spans
        from antipode_spectrum import (cyclotomic, families, grothendieck, modcat, oracle,
                                       spectrum, specfile, symbolic)

        tracer = spans.Tracer(args.seed)
        tracer.install({"cli": cli, "cyclotomic": cyclotomic, "families": families,
                        "grothendieck": grothendieck, "modcat": modcat, "oracle": oracle,
                        "spectrum": spectrum, "specfile": specfile, "symbolic": symbolic})

    t_start = time.perf_counter()
    first = {}  # job id -> {"exit", "sha256", "error"} from the warm-up pass
    for job in jobs:
        code, text, error, _ = run_job(cli, job["argv"])
        (out_dir / f"{job['id']}.out").write_text(text)
        first[job["id"]] = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest(),
                            "error": error}

    pass_walls, job_times, diverged = [], {job["id"]: [] for job in jobs}, {}
    probes, last_probe = [], 0.0
    job_probes = {job["id"]: [] for job in jobs}  # index of the last probe before each sample
    passes = 0
    while True:
        if tracer:
            tracer.start_pass(passes)
        wall = 0.0
        for job in jobs:
            if passes >= args.min_passes and time.perf_counter() - t_start >= args.seconds:
                break
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            code, text, error, dt = run_job(cli, job["argv"])
            job_times[job["id"]].append(dt)
            job_probes[job["id"]].append(len(probes) - 1)
            wall += dt
            ref = first[job["id"]]
            data = text.encode()
            if tracer:
                tracer.add("cli.output_bytes", len(data))
            if code != ref["exit"] or hashlib.sha256(data).hexdigest() != ref["sha256"]:
                diverged.setdefault(job["id"], error or "stdout or exit code differs from warm-up")
        else:
            pass_walls.append(wall)
            if tracer:
                tracer.end_pass()
            passes += 1
            continue
        break
    probes.append(probe())  # every sample now has a probe after it

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "pass_walls": pass_walls, "job_times": job_times,
              "first": first, "diverged": diverged, "peak_rss_mb": peak_rss_mb,
              "probes": probes, "job_probes": job_probes}
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.summary(list(range(passes)))
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
