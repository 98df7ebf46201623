"""Benchmark for the nonassoc workbench: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (it imports the library from ``src/``).
The workloads are closed loops with one client: each job starts when the
previous one has returned, in one process, with no extra threads.  A pass
runs the workload's job list once; passes repeat until the jobs have run
for ``--seconds`` in total (at least one pass; a started pass finishes).

The host's speed is not constant: on a shared machine the same code can run
1.6x slower for seconds to minutes at a time.  Every end-to-end time is
therefore reported at a reference speed: a fixed pure-Python reference loop
is timed between jobs and around each fresh-process probe, and each measured
time is scaled by REF_NOMINAL / (the reference loop's time around it).  The
raw times are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see spans.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Every job
result is checked against an oracle after the timed region (workloads.py).

Two internal modes serve the measurement itself: ``--setup-probe`` (a fresh
process that imports the library, builds the inputs and reports when it is
ready) and ``--record-transcript`` (rewrites cli_transcript.json; run it only
on the commit whose CLI output is the reference).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 6      # fresh processes per run for setup_s (median)
COLD_PROBES = 8       # fresh `catalog list` processes per run (median)
# Tail percentile per workload: the highest step of 99/95/90/75/50 that leaves
# at least ten job samples beyond it in a run at the seed commit.  It is fixed
# so that runs with different pass counts report the same percentile; a run
# with too few samples falls back to a lower step and says so.
TAIL_PCT = {"identity-verify": 90, "cli-refute": 95, "operator-spaces": 75,
            "rebased-spaces": 75}
LADDER = (99, 95, 90, 75, 50)
REF_NOMINAL = 1e-3    # s: reference_loop() on an idle core of a 2-vCPU Xeon host
REF_EVERY = 0.05      # s of job time between reference samples


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "nonassoc", "__init__.py")):
        _fail(f"no nonassoc package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nonassoc
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(nonassoc.__file__))) != SRC:
        _fail(f"imported nonassoc from {nonassoc.__file__}, not from {SRC}")
    return import_s


def _work_dir():
    return os.path.join(HERE, "_work", str(os.getpid()))


def _subprocess(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    return t0, time.perf_counter(), proc


def reference_loop():
    """Fixed work in the interpreter's hot paths (Fraction arithmetic, dicts)."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 250):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 13] = table.get(i % 13, 0) + acc
    return acc


def reference_time():
    """Best of three reference loops: the host's speed at this moment."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def scaled(probe):
    """Run ``probe()`` (which returns seconds) and scale it to reference speed."""
    before = reference_time()
    raw = probe()
    return raw, raw * REF_NOMINAL / ((before + reference_time()) / 2)


def setup_probe(workload, seed, setups, imports):
    """One fresh process that imports the library and builds the inputs.

    Appends (raw, scaled) seconds to ``setups``.  The set-up time runs from just before the process is spawned to the
    moment it reports that its first job is ready (both clocks are the
    system's monotonic clock)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    def probe():
        t0, _, proc = _subprocess(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(rep["import_s"])
        return rep["ready"] - t0

    setups.append(scaled(probe))


def cold_start(times):
    """Wall time of one fresh `workbench catalog list` process (raw, scaled)."""
    argv = [sys.executable, "-m", "nonassoc.cli", "catalog", "list"]

    def probe():
        t0, t1, proc = _subprocess(argv)
        if proc.returncode != 0 or not proc.stdout.startswith("catalog: "):
            raise RuntimeError(f"`catalog list` failed: {proc.stderr.strip()[-500:]}")
        return t1 - t0

    times.append(scaled(probe))


def run_passes(jobs, seconds, probes=(), min_passes=1, results=None):
    """Run passes over ``jobs`` until their latencies add up to ``seconds``.

    Returns (results, raw latencies, scaled latencies), the latencies as one
    list per pass.  A job's scaled latency is its latency times REF_NOMINAL
    over the mean of the reference samples just before and just after it;
    the reference is sampled at each pass's start and between jobs every
    REF_EVERY seconds of job time.  ``probes`` (callables) run between jobs
    at evenly spaced moments of the measured time, never inside a timed job,
    so that they sample the whole run rather than one moment of it; any left
    over run at the end.
    """
    clock = time.perf_counter
    results = [] if results is None else results
    raw, scaled = [], []
    busy = 0.0
    due = [seconds * (i + 0.5) / len(probes) for i in range(len(probes))]
    next_probe = 0
    while len(raw) < min_passes or busy < seconds:
        refs, since_ref = [reference_time()], 0.0
        timed = []   # (latency, index of the reference sample before it)
        for idx, job in enumerate(jobs):
            while next_probe < len(probes) and busy >= due[next_probe]:
                probes[next_probe]()
                next_probe += 1
            if since_ref >= REF_EVERY:
                refs.append(reference_time())
                since_ref = 0.0
            t0 = clock()
            try:
                res = job.run()
            except Exception as exc:   # a raising job is a failed job, not a crash
                res = exc
            dt = clock() - t0
            busy += dt
            since_ref += dt
            timed.append((dt, len(refs) - 1))
            results.append((idx, res))
        refs.append(reference_time())
        raw.append([dt for dt, _ in timed])
        scaled.append([dt * 2 * REF_NOMINAL / (refs[k] + refs[k + 1]) for dt, k in timed])
    for probe in probes[next_probe:]:
        probe()
    return results, raw, scaled


def check_results(jobs, results):
    failures = []
    for idx, res in results:
        job = jobs[idx]
        if isinstance(res, Exception):
            failures.append(f"{job.name}: raised {type(res).__name__}: {res}")
            continue
        msg = job.check(res)
        if msg:
            failures.append(f"{job.name}: {msg}")
    return failures


def tail(workload, samples):
    """The workload's tail percentile of ``samples``, lowered if fewer than
    ten samples would lie beyond it."""
    steps = [p for p in LADDER
             if p <= TAIL_PCT[workload] and len(samples) * (100 - p) / 100 >= 10] or [50]
    pct = steps[0]
    if len(samples) < 2:
        return pct, samples[0]
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loop": "closed loop, 1 client"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-transcript", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    import_s = _import_library()
    import spans as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    work = _work_dir()
    try:
        if args.record_transcript:
            entries = wl.record_transcript(work)
            print(f"recorded {len(entries)} requests to {wl.TRANSCRIPT}")
            return 0
        if args.setup_probe:
            wl.WORKLOADS[args.workload](args.seed, work)
            print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))
            return 0
        return bench(args, wl, tr, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass   # another run still uses it


def bench(args, wl, tr, work):
    # One CPU for this process and the probes it spawns, so that the
    # reference loop times the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build = wl.WORKLOADS[args.workload]
    problems = []
    setups, imports, colds = [], [], []
    probe_setup = (lambda: setup_probe(args.workload, args.seed, setups, imports))
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print("host " + json.dumps(host(), sort_keys=True))

    if args.trace == 0:
        jobs = build(args.seed, work)
        probes = []
        for i in range(max(SETUP_PROBES, COLD_PROBES)):
            probes += [probe_setup] * (i < SETUP_PROBES)
            probes += [lambda: cold_start(colds)] * (i < COLD_PROBES)
        results, raw, scaled = run_passes(jobs, args.seconds, probes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t_check = time.perf_counter()
        failures = check_results(jobs, results)
        t_check = time.perf_counter() - t_check
        samples = [x for lat in scaled for x in lat]
        raw_samples = [x for lat in raw for x in lat]
        pct, tail_s = tail(args.workload, samples)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "wall_s": (statistics.median(sum(lat) for lat in scaled), "s"),
            "job_ms_p50": (1e3 * statistics.median(samples), "ms"),
            "job_ms_tail": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "cold_start_ms": (1e3 * statistics.median(s for _, s in colds), "ms"),
        }
        notes = [f"job_ms_tail is p{pct} of {len(samples)} job samples "
                 f"({len(jobs)} jobs x {len(raw)} passes)",
                 f"times above are at reference speed; as measured: "
                 f"setup_s {statistics.median(r for r, _ in setups):.6g}, "
                 f"wall_s {statistics.median(sum(lat) for lat in raw):.6g}, "
                 f"job_ms_p50 {1e3 * statistics.median(raw_samples):.6g}, "
                 f"job_ms_tail {1e3 * tail(args.workload, raw_samples)[1]:.6g}, "
                 f"cold_start_ms {1e3 * statistics.median(r for r, _ in colds):.6g}",
                 f"oracle checks took {t_check:.3g} s (not timed)"]
    else:
        for _ in range(SETUP_PROBES):
            probe_setup()
        tracer = tr.Tracer()
        tracer.install()
        try:
            jobs = build(args.seed, work)
        finally:
            tracer.uninstall()
        setup_stats = tracer.collect()
        # a third of the time untraced, the rest traced with at least two passes
        results, plain, _ = run_passes(jobs, args.seconds / 3)
        traced, pass_stats = [], []
        while len(traced) < 2 or sum(traced) < args.seconds * 2 / 3:
            tracer.install()
            try:
                _, one, _ = run_passes(jobs, 0, results=results)
            finally:
                tracer.uninstall()
            traced += [sum(lat) for lat in one]
            pass_stats.append(tracer.collect())
        failures = check_results(jobs, results)
        per_pass = [tr.layer_metrics(tr.merge(setup_stats, st)) for st in pass_stats]
        metrics = {}
        for name, (first, unit) in per_pass[0].items():
            metrics[name] = (first if unit == "count" else
                             statistics.median(m[name][0] for m in per_pass), unit)
        metrics["cli.import_ms"] = (1e3 * statistics.median(imports), "ms")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(sum(lat) for lat in plain) - 1,
            "frac")
        unrepeated = sorted(name for name, (_, unit) in per_pass[0].items()
                            if unit == "count" and len({m[name][0] for m in per_pass}) > 1)
        if unrepeated:
            problems.append("counts differ between traced passes: " + ", ".join(unrepeated))
        notes = [f"{len(plain)} untraced and {len(traced)} traced passes; per-layer values "
                 f"cover the traced set-up plus one traced pass (median over passes)",
                 f"counts repeat exactly across traced passes: {not unrepeated}"]

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    notes.append(f"failed_frac = {len(failures) / len(results):.6g} frac "
                 f"({len(failures)} of {len(results)} jobs)")
    for line in notes:
        print(line)
    for msg in (problems + failures)[:20]:
        print(f"FAILED {msg}")
    out = {"correct": not failures and not problems,
           "attempted": len(results),
           "failed": len(failures),
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
