"""Closed-loop verification benchmark for braidorbit.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 40 --trace 0

One client in one thread sends each job after the previous verdict.  A run
makes whole passes over the seeded job list: the first pass always, and a
further one while it is expected to end within --seconds, so every run
measures the same mix of jobs.  Each verdict is checked against its
expectation, and each job's output is digested; a later pass must reproduce
the first pass byte for byte.

--trace 0 prints the end-to-end metrics; a job's time is its median over
the passes.  --trace 1 makes one traced pass and one untraced pass, and prints
the per-layer metrics of the traced pass and its wall time over that of the
untraced one.  The last line of standard output is one JSON object; the exit
code is 0 only when every verdict is right.  Per-job records and the spans go
to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

JOB_LIMIT_S = 60      # a job running longer counts as failed
RUN_LIMIT_S = 150     # no job starts after this, so a run ends within 180 s
SETUP_PROBES = 5

# Interpreter start, import and input generation, as the run itself does them.
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import jobs; "
          "jobs.generate(sys.argv[3], int(sys.argv[4])); print('ready', flush=True)")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"no verdict within the {JOB_LIMIT_S} s job limit")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def measure_setup(workload, seed):
    """Median of fresh interpreters' time until the job list is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(HERE), str(SRC),
                               workload, str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not ready:
                raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def run_pass(job_list, run_job, tracer=None):
    """[(seconds or None, verdict right, output digest)] for one pass."""
    records = []
    for job in job_list:
        remaining = RUN_LIMIT_S - (time.monotonic() - STARTED)
        if remaining <= 0:
            print(f"not started, run limit reached: {job.kind} {job.params}",
                  file=sys.stderr)
            records.append((None, False, ""))
            continue
        signal.alarm(max(1, min(JOB_LIMIT_S, math.ceil(remaining))))
        t0 = time.perf_counter()
        try:
            if tracer is None:
                verdict, output = run_job(job)
            else:
                with tracer.job(f"job.{job.kind}"):
                    verdict, output = run_job(job)
            seconds, ok = time.perf_counter() - t0, verdict == job.expect
            if not ok:
                print(f"wrong verdict {verdict!r}, expected {job.expect!r}: "
                      f"{job.kind} {job.params}", file=sys.stderr)
        except Exception as exc:  # a job that raises has no verdict
            seconds, ok, output = None, False, f"{type(exc).__name__}: {exc}"
            print(f"raised {output}: {job.kind} {job.params}", file=sys.stderr)
        finally:
            signal.alarm(0)
        records.append((seconds, ok, _digest(output)))
    return records


def run_passes(job_list, run_job, seconds, count=None, tracer=None):
    """Whole passes: `count` of them, or as many as fit in `seconds`.
    Returns the passes and the wall time of each."""
    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(job_list, run_job, tracer))
        walls.append(time.perf_counter() - t0)
        if count is not None:
            if len(passes) == count:
                break
        elif sum(walls) + statistics.mean(walls) > seconds:
            break
    return passes, walls


def tail(times):
    """Time at the highest percentile with ten jobs beyond it, and that percentile."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100 * (index + 1) / len(ordered)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        import braidorbit
        import jobs
        import tracer as tracing
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(braidorbit.__file__).resolve().parent != SRC / "braidorbit":
        print(f"braidorbit was imported from {braidorbit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(jobs.WORKLOADS)}")

    job_list = jobs.generate(args.workload, args.seed)
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    inputs = _digest(repr(job_list))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs=sha256:{inputs[:16]} nproc={os.cpu_count()} "
          f"python={platform.python_version()} git={_git_sha()[:12]}")
    print(f"properties {json.dumps(jobs.describe(job_list), sort_keys=True)}")

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        passes, walls = run_passes(job_list, jobs.run_job, args.seconds)
    else:
        # one traced pass, cold, then one untraced: the overhead ratio errs high
        with tracer:
            passes, traced_walls = run_passes(job_list, jobs.run_job, args.seconds,
                                              count=1, tracer=tracer)
        untraced, walls = run_passes(job_list, jobs.run_job, args.seconds, count=1)
        passes += untraced

    first = [digest for _, _, digest in passes[0]]
    records = [r for p in passes for r in p]
    attempted = len(records)
    failed = sum(1 for _, ok, _ in records if not ok)
    unstable = sum(1 for p in passes[1:] for (_, ok, d), d0 in zip(p, first)
                   if ok and d != d0)
    if unstable:
        print(f"{unstable} job outputs differ from the first pass", file=sys.stderr)
    failed += unstable
    outputs = _digest("".join(first))
    print(f"outputs=sha256:{outputs[:16]} passes={len(passes)} "
          f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted})")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"inputs": inputs, "outputs": outputs, "jobs": [
            {"kind": job.kind, "params": repr(job.params), "output": first[i],
             "ok": [p[i][1] for p in passes], "seconds": [p[i][0] for p in passes]}
            for i, job in enumerate(job_list)]}, fh, indent=1)

    if tracer is None:
        # a job's time is the median over the passes, which filters out
        # slow spells of a shared machine that last less than a pass
        per_job = [statistics.median(ts) for ts in
                   ([p[i][0] for p in passes if p[i][0] is not None]
                    for i in range(len(job_list))) if ts]
        completed = sum(1 for s, _, _ in records if s is not None) / len(passes)
        tail_s, pct = tail(per_job) if per_job else (0.0, 100.0)
        metrics = {
            "jobs_per_s": (completed / statistics.median(walls), "1/s"),
            "job_s_p50": (statistics.median(per_job) if per_job else 0.0, "s"),
            "job_s_tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"job_s_tail is p{pct:.1f} of {len(per_job)} jobs")
    else:
        tracer.write(OUT / f"spans-{stem}.tsv.gz")
        metrics = tracer.metrics()
        metrics["trace_overhead_ratio"] = (traced_walls[0] / walls[0], "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
