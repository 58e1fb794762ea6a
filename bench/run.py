#!/usr/bin/env python3
"""risbeam benchmark: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload cli-paper --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced replay.  ``--workload all`` runs every
workload in its own process and prints one table.

Operation outputs and generated configs go to a temporary directory under
``.bench_build/`` in the checkout, removed at exit; bytecode of the library
and of this benchmark is cached under ``.bench_build/pycache``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("cli-paper", "design-sweep", "cli-large")
# One BLAS thread: steadier on a shared machine, and never above nproc.
BLAS_THREADS = "1"
SETUP_RUNS = 9
PROBE_REF_S = 0.006
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_p75_s", "s"), ("success_frac", "ratio"),
              ("peak_rss_mb", "MB"))


def pin_environment():
    """BLAS threads and bytecode caching, set before numpy or risbeam load.

    Bytecode is always cached (under .bench_build/pycache), whatever the
    caller's PYTHONDONTWRITEBYTECODE says, so that set-up time measures
    imports as an installed package pays them, not recompilation.  Child
    processes inherit both settings through the environment.
    """
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    prefix = str(BUILD_DIR / "pycache")
    os.environ["PYTHONPYCACHEPREFIX"] = prefix
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = prefix
    sys.dont_write_bytecode = False


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measured time: whole rounds until the summed op time "
                        "reaches this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None,
                   help="with --trace 1, also write every span as JSON lines here")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------ environment


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "risbeam").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads(np):
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
                 "threads_reported": _blas_threads(np)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------- runs


class SpeedProbe:
    """Tracks the machine's momentary speed with a fixed kernel.

    On a shared machine other tenants slow the same code by up to 60% for
    tens of seconds at a time, longer than a run.  The kernel mixes what
    the pipeline does: a BLAS product, Python float formatting and a numpy
    complex exponential on cache-resident data, then a pass over 16 MB
    arrays, which tracks memory-bandwidth contention that the large-array
    ops feel and the cache-resident part does not.  It takes about
    PROBE_REF_S on the unloaded reference machine (2-core x86_64, numpy
    2.4 with single-threaded OpenBLAS).  Timed right before an op, its
    best of three gives the factor PROBE_REF_S / time by which the op's
    wall time is scaled to reference speed; probe and op slow down
    together, so the factor removes the common slowdown.
    """

    def __init__(self, np):
        self.np = np
        self.x = np.random.default_rng(0).random((192, 192))
        self.big = np.random.default_rng(1).random(2_000_000)
        self.out = np.empty_like(self.big)
        for _ in range(5):                # first calls are slower
            self._once()
        self.times = []

    def _once(self) -> float:
        start = time.perf_counter()
        y = self.x @ self.x
        ",".join(format(v, ".17g") for v in y[:6].ravel())
        self.np.exp(1j * y).sum()
        self.np.multiply(self.big, 1.0001, out=self.out)
        self.out.sum()
        return time.perf_counter() - start

    @property
    def resident_mb(self) -> float:
        """Memory the probe holds for the whole run."""
        return (self.x.nbytes + self.big.nbytes + self.out.nbytes) / 2 ** 20

    def scale(self) -> float:
        best = min(self._once() for _ in range(3))
        self.times.append(best)
        return PROBE_REF_S / best


def measure_setup(args, probe: SpeedProbe) -> tuple:
    """Fresh interpreters that import risbeam, build the inputs and exit.

    Returns the median of the spawn-to-exit wall times scaled to reference
    speed, and the median of the raw ones.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        factor = probe.scale()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * factor)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return statistics.median(scaled), statistics.median(raw)


def measure(runner, workloads, inputs, probe: SpeedProbe, seconds: float,
            replay=None) -> dict:
    """Whole rounds of ops until their summed wall time reaches ``seconds``.

    With ``replay`` the given ops are run instead, once each, in order.
    Each op is timed alone, right after a speed probe; the oracle checks
    its outputs afterwards, outside the timed interval.
    """
    ops, latencies, scaled, failures = [], [], [], []

    def run_one(op):
        factor = probe.scale()
        start = time.perf_counter()
        try:
            outcome = runner.run(op)
            error = None
        except Exception as exc:          # a raising op is a failed op
            outcome, error = None, f"raised {exc!r}"
        latencies.append(time.perf_counter() - start)
        scaled.append(latencies[-1] * factor)
        if error is None:
            try:
                error = runner.check(op, outcome)
            except Exception as exc:      # unreadable output is a failed op
                error = f"oracle could not read the output: {exc!r}"
        ops.append(op)
        if error is not None:
            failures.append(f"{op.label}: {error}")

    if replay is not None:
        for op in replay:
            run_one(op)
    else:
        while True:
            for op in workloads.make_round(inputs):
                run_one(op)
            if sum(latencies) >= seconds and len(latencies) >= workloads.MIN_SAMPLES:
                break
    return {"ops": ops, "latencies": latencies, "scaled": scaled,
            "failures": failures}


def _rates(np, ops, latencies) -> tuple:
    """ops/s, and the median and 75th percentile of per-kind median latency.

    A kind is one command on one config, or one sweep job; every round
    runs each kind once, so each kind weighs the same.  Taking each kind's
    median first keeps a kind's noisy repeats from mixing with a
    neighbouring kind of similar cost.
    """
    by_kind = {}
    for op, t in zip(ops, latencies):
        by_kind.setdefault(op.label, []).append(t)
    kind_medians = [statistics.median(v) for v in by_kind.values()]
    return (len(latencies) / sum(latencies), float(np.percentile(kind_medians, 50)),
            float(np.percentile(kind_medians, 75)))


def end_to_end_metrics(np, record: dict, setup_s: float, probe: SpeedProbe) -> dict:
    """The six end-to-end metrics of an untraced record, at reference speed.

    The probe's arrays are resident for the whole run, so its footprint is
    taken off the process's peak RSS.
    """
    ops_per_s, p50, p75 = _rates(np, record["ops"], record["scaled"])
    n = len(record["ops"])
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_s": p50,
        "latency_p75_s": p75,
        "success_frac": (n - len(record["failures"])) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        - probe.resident_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(args) -> int:
    import numpy as np
    import tracer
    import workloads
    probe = SpeedProbe(np)
    raw = {}
    if args.trace == 0:
        setup_s, raw["setup_s"] = measure_setup(args, probe)
    rb = workloads.import_library(SRC)
    BUILD_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR))
    try:
        inputs = workloads.generate_inputs(args.workload, args.seed, ROOT, work)
        runner = workloads.Runner(inputs, rb, work, args.seed)
        runner.prepare()
        for op in workloads.warmup_ops(args.workload, inputs):
            runner.run(op)
        if args.trace == 0:
            record = measure(runner, workloads, inputs, probe, args.seconds)
            metrics = end_to_end_metrics(np, record, setup_s, probe)
            records = [record]
        else:
            # Half the time untraced, then the same ops again with tracing;
            # the difference in scaled op time between the two is the overhead.
            plain = measure(runner, workloads, inputs, probe, args.seconds / 2)
            spans = tracer.Tracer()
            spans.install()
            try:
                traced = measure(runner, workloads, inputs, probe, 0,
                                 replay=plain["ops"])
            finally:
                spans.uninstall()
            overhead = sum(traced["scaled"]) / sum(plain["scaled"]) - 1.0
            metrics = spans.metrics(overhead)
            if args.spans:
                spans.write_spans(args.spans)
            records = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in records)
    failures = [f for r in records for f in r["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    raw["ops_per_s"], raw["latency_p50_s"], raw["latency_p75_s"] = \
        _rates(np, records[0]["ops"], records[0]["latencies"])
    env = environment(np, args)
    env.update(ops_measured=attempted, raw_wall=raw, probe_ref_s=PROBE_REF_S,
               probe_median_s=statistics.median(probe.times),
               probe_min_s=min(probe.times))
    print(f"# {args.workload}: {attempted} ops, seed {args.seed}, "
          f"trace {args.trace}, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def setup_only(args) -> int:
    """Import risbeam and generate the workload inputs, then exit."""
    import workloads
    workloads.import_library(SRC)
    BUILD_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=BUILD_DIR))
    try:
        workloads.generate_inputs(args.workload, args.seed, ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, ok = [], True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((workload, result))
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':28s}" + "".join(f"{w:>16s}" for w, _ in rows) + "  unit")
    for name in names:
        print(f"{name:28s}"
              + "".join(f"{r['metrics'][name]['value']:>16.6g}" for _, r in rows)
              + f"  {rows[0][1]['metrics'][name]['unit']}")
    print("correct: " + ", ".join(f"{w}={r['correct']} ({r['failed']}/{r['attempted']} "
                                  f"failed)" for w, r in rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    # On SIGTERM, unwind normally so temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "risbeam" / "__init__.py").is_file():
        print(f"benchmark: no risbeam sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
