#!/usr/bin/env python3
"""complaff benchmark: seeded, single-process, closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload reguli-gf3 --seed 1 --seconds 20 --trace 0

Each workload turns the seed into a fixed list of jobs (see
workloads.py) and runs them one after another, checking every output.

--trace 0  set-up probes, then an untraced run of whole job blocks for
           --seconds; prints the end-to-end metrics, their times scaled
           by a calibration loop (see REF_CAL_S).
--trace 1  an untraced, a span-traced and a cProfile pass over the same
           fixed prefix of the job list (its length depends only on
           --seconds, so counts repeat exactly); prints per-layer metrics
           and writes the spans to .perfbench-out/.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}.  The line before it is
a metadata block (machine, load, input digest, tail percentile, ...).
The program under test is imported from ./src only; without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_PROBES = 5

# On a shared 2-core Xeon VM, CPU speed drifts by up to ~40% for seconds
# to minutes at a time (other tenants on shared cores), and CPU time
# slows with wall time.  A fixed piece of pure-Python work, row
# reductions over GF(5), runs before and after every timed block and
# set-up probe; there, job times divided by its time varied ~1% where raw
# times varied ~25%.  Times are reported scaled to a machine on which the
# calibration takes REF_CAL_S (close to its time on that VM when quiet);
# the raw values are in the metadata.
REF_CAL_S = 0.002


def _calibration_matrices():
    rng = random.Random(0)
    return tuple(tuple(tuple(rng.randrange(5) for _ in range(6)) for _ in range(4))
                 for _ in range(100))


CAL_MATRICES = _calibration_matrices()
TAIL_LADDER = (95, 90, 75, 50)   # percentiles tried for job_tail_ms, highest first

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "cpu_ms_per_job": "ms",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import complaff from ./src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "complaff", "__init__.py")):
        _fail(f"{SRC}/complaff not found; run from a complaff checkout")
    sys.path.insert(0, SRC)
    import complaff
    if os.path.dirname(os.path.dirname(os.path.abspath(complaff.__file__))) != SRC:
        _fail(f"complaff was imported from {complaff.__file__}, not {SRC}")


def _calibrate() -> float:
    from workloads import rref_mod

    t0 = time.perf_counter()
    for rows in CAL_MATRICES:
        rref_mod(rows, 5)
    return time.perf_counter() - t0


def _note(errors, message):
    if len(errors) < 5:
        errors.append(message)


def _run_job(job, errors, profile=None):
    """Time one job (wall and process CPU) and check its output.

    Returns (ok, wall, cpu, output).  An exception or a wrong output makes
    ok False and never stops the run.  A given profile is enabled only
    while the job runs.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        out = job.run()
    except Exception:
        out = None
        _note(errors, f"{job.kind}: {traceback.format_exc(limit=3)}")
    finally:
        if profile is not None:
            profile.disable()
    t1 = time.perf_counter()
    c1 = time.process_time()
    ok = False
    if out is not None:
        try:
            ok = job.check(out) is True
        except Exception:
            _note(errors, f"{job.kind} (check): {traceback.format_exc(limit=3)}")
        if not ok:
            _note(errors, f"{job.kind}: wrong output")
    return ok, t1 - t0, c1 - c0, out


def _setup(workload, seed, workdir, errors):
    """Input generation plus a warm-up call of every job kind."""
    blocks = workload.make(seed, workdir)
    seen, failed = set(), 0
    for job in (j for block in blocks for j in block):
        if job.kind not in seen:
            seen.add(job.kind)
            failed += not _run_job(job, errors)[0]
    return blocks, len(seen), failed


def _digest(blocks) -> str:
    specs = [job.spec for block in blocks for job in block]
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _probe_setup(args):
    """Process start to first timed job, measured in fresh processes.

    Returns the raw and the speed-scaled probe times.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        before = _calibrate()
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed = float(proc.stdout.split()[-1]) - t0
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REF_CAL_S / (before + _calibrate()))
    return raw, scaled


def _tail(walls):
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def _git_head() -> str:
    """HEAD from .git files, when the checkout has them."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(args, workload) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_head": _git_head(),
    }


def _timed_run(blocks, seconds, errors):
    """Closed loop over whole blocks until --seconds of wall time passed.

    Returns per-job (kind, wall, block index), per-block (wall, cpu) sums,
    per-block speed factors and the number of failed jobs.
    """
    jobs, block_sums, failed = [], [], 0
    cals = [_calibrate()]
    deadline = time.perf_counter() + seconds
    while not block_sums or time.perf_counter() < deadline:
        b = len(block_sums)
        wall_sum = cpu_sum = 0.0
        for job in blocks[b % len(blocks)]:
            ok, wall, cpu, _ = _run_job(job, errors)
            failed += not ok
            jobs.append((job.kind, wall, b))
            wall_sum += wall
            cpu_sum += cpu
        block_sums.append((wall_sum, cpu_sum))
        cals.append(_calibrate())
    factors = [2 * REF_CAL_S / (x + y) for x, y in zip(cals, cals[1:])]
    return jobs, block_sums, factors, failed


def _summary(jobs, block_sums, factors, block_jobs) -> dict:
    """Throughput, CPU cost and latency with each block's time scaled.

    Every block holds the same mix of jobs.  Throughput and CPU cost are
    taken from the median block, so a stretch in which the machine runs
    slow moves them less than a mean over the run would.
    """
    walls = [w * factors[b] for _, w, b in jobs]
    tail, pct, beyond = _tail(walls)
    return {
        "jobs_per_s": block_jobs / statistics.median(
            w * f for (w, _), f in zip(block_sums, factors)),
        "cpu_ms_per_job": 1e3 * statistics.median(
            c * f for (_, c), f in zip(block_sums, factors)) / block_jobs,
        "job_p50_ms": 1e3 * statistics.median(walls),
        "job_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
    }


def _end_to_end(args, workload, meta, errors):
    probes_raw, probes = _probe_setup(args)
    t_setup = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        blocks, warm, warm_failed = _setup(workload, args.seed, workdir, errors)
        own_setup = time.perf_counter() - t_setup
        jobs, block_sums, factors, failed = _timed_run(blocks, args.seconds, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = len(jobs) + warm, failed + warm_failed
    block_jobs = len(blocks[0])
    scaled = _summary(jobs, block_sums, factors, block_jobs)
    raw = _summary(jobs, block_sums, [1.0] * len(factors), block_jobs)
    raw["setup_s"] = statistics.median(probes_raw)
    per_kind = {}
    for kind in sorted({k for k, _, _ in jobs}):
        ws = [w * factors[b] for k, w, b in jobs if k == kind]
        per_kind[kind] = {"jobs": len(ws), "p50_ms": 1e3 * statistics.median(ws)}
    meta.update({
        "input_digest": _digest(blocks),
        "jobs_in_list": sum(len(b) for b in blocks),
        "blocks_run": len(block_sums),
        "samples": len(jobs),
        "tail_percentile": scaled["tail_percentile"],
        "tail_samples_beyond": scaled["tail_samples_beyond"],
        "fail_ratio": failed / attempted,
        "ref_cal_s": REF_CAL_S,
        "speed_factor_median": statistics.median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "raw": raw,
        "setup_probes_s": probes,
        "own_setup_s": own_setup,
        "per_kind": per_kind,
    })
    metrics = {
        "setup_s": statistics.median(probes),
        **{k: scaled[k] for k in ("jobs_per_s", "cpu_ms_per_job", "job_p50_ms",
                                  "job_tail_ms")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return attempted, failed, {k: {"value": v, "unit": END_TO_END[k]}
                               for k, v in metrics.items()}


def _pass(jobs, errors, tracer=None, profile=None):
    """Run every job once; returns (failed, job time, CLI stdout bytes)."""
    from workloads import CliResult

    failed, total, stdout_bytes = 0, 0.0, 0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        ok, wall, _, out = _run_job(job, errors, profile)
        failed += not ok
        total += wall
        if isinstance(out, CliResult):
            stdout_bytes += len(out.stdout.encode())
    return failed, total, stdout_bytes


def _traced(args, workload, meta, errors):
    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        blocks, warm, failed = _setup(workload, args.seed, workdir, errors)
        count = max(1, round(args.seconds * workload.trace_blocks_per_s))
        jobs = [job for b in range(count) for job in blocks[b % len(blocks)]]
        plain_failed, plain, _ = _pass(jobs, errors)
        tracer = tracing.SpanTracer(extra_namespaces=[workloads])
        start = time.perf_counter()
        tracer.install()
        try:
            traced_failed, traced, stdout_bytes = _pass(jobs, errors, tracer=tracer)
        finally:
            tracer.uninstall()
        profile = cProfile.Profile()
        profiled_failed, _, _ = _pass(jobs, errors, profile=profile)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = tracing.span_metrics(tracer)
    values.update(tracing.profile_metrics(profile))
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.overhead_ratio"] = traced / plain
    trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json.gz")
    tracer.write(trace_path, start)
    attempted = warm + 3 * len(jobs)
    failed += plain_failed + traced_failed + profiled_failed
    meta.update({"input_digest": _digest(blocks), "traced_jobs": len(jobs),
                 "spans": len(tracer.spans),
                 "trace_file": os.path.relpath(trace_path, ROOT),
                 "untraced_s": plain, "traced_s": traced,
                 "fail_ratio": failed / attempted})
    return attempted, failed, {k: {"value": values[k], "unit": unit}
                               for k, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        # -O strips the assert checks in src/ (cone_decompose's exhaustive
        # cone == line check among them), so it would time a weaker program
        _fail("refusing to run under python -O")
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    errors: list[str] = []

    if args.setup_probe:
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            _setup(workload, args.seed, workdir, errors)
            print(time.monotonic(), flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    meta = _metadata(args, workload)
    run = _traced if args.trace else _end_to_end
    attempted, failed, metrics = run(args, workload, meta, errors)
    meta["loadavg_end"] = list(os.getloadavg())
    for err in errors[:5]:
        print(err, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
