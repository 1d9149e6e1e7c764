"""The tlbraid benchmark: end-to-end and per-layer metrics of seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload tl_long --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one report
    python3 bench/run.py --write-digests           # refresh bench/digests.json

Each run spawns fresh worker processes with ``sys.executable`` and drives
them as a single closed-loop caller: the next item is sent only when the
last reply is in. BLAS threads are capped at nproc. Workloads, checks and
digests are in ``workloads.py``; the worker is ``worker.py``.

With ``--trace 0`` the run measures, over whole passes until ``--seconds``
have passed and the costliest class of items has more than TAIL_BEYOND
samples (so that the tail falls inside that class, whatever the speed):

    items_per_s   items completed per second of the timed loop
    item_p50_ms   median per-item latency (library call only)
    item_tail_ms  highest percentile with at least ten samples beyond it
    setup_s       spawn to end of the warm-up item (interpreter start,
                  ``import tlbraid`` with numpy), median over SETUP_SPAWNS
                  + 1 children; input generation is excluded
    peak_rss_mb   peak RSS of the measured child
    ok_frac       1 - failed checks / items attempted (the failure fraction
                  is reported as its complement so that the metric is never 0)

With ``--trace 1`` an untraced and a traced child share ``--seconds``,
alternating pass by pass; the traced child wraps the library from outside
(``tracer.py``) and the per-layer metrics cover its first TRACE_ITEMS items
(whole passes), so exact counts repeat for a seed. The tracing overhead is
traced minus untraced items per second.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report and the environment record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    DIGEST_FILE,
    DIGEST_PASSES,
    WORKLOADS,
    digest,
    load_digests,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).with_name("worker.py")

SETUP_SPAWNS = 5
TAIL_BEYOND = 10
TRACE_ITEMS = 9  # per-layer figures cover the first whole passes holding this many
IMPORT_PROBES = 3
EXIT_TIMEOUT_S = 30


class ChildError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Child:
    """One worker process and its pipe; use as a context manager so the
    process is always reaped."""

    def __init__(self, warmup: dict, trace: bool = False):
        threads = str(nproc())
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        argv = [sys.executable, str(WORKER), str(SRC)] + (["--trace"] if trace else [])
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        try:
            self.call(warmup)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def call(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise ChildError(f"worker exited with code {self.proc.wait()}") from None
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> dict:
        """Ask the worker for its final figures and wait for it to exit."""
        final = self.call({"op": "stop"})
        self.proc.wait(timeout=EXIT_TIMEOUT_S)
        return final

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_pass(child: Child, workload, seed: int, k: int, replies: list) -> float:
    """Send pass k item by item, append (item, reply) to `replies`, and
    return the pass's wall seconds."""
    begun = time.perf_counter()
    for item in workload.pass_items(seed, k):
        replies.append((item, child.call({"op": "item", "id": len(replies), "item": item})))
    return time.perf_counter() - begun


def timed_loop(child: Child, workload, seed: int, seconds: float, min_passes: int):
    """Run whole passes until `seconds` have passed and `min_passes` are done.

    Returns ([(item, reply)], [wall seconds of each pass]).
    """
    replies, pass_seconds = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(pass_seconds) < min_passes:
        pass_seconds.append(run_pass(child, workload, seed, len(pass_seconds), replies))
    return replies, pass_seconds


def items_per_s(replies, pass_seconds) -> float:
    """Items completed per second of the timed loop (whole passes only)."""
    return len(replies) / sum(pass_seconds)


def find_failures(workload, replies, expected: list[str]) -> list[tuple[int, str]]:
    """(item id, reason) for every reply that fails its check or differs
    from its expected digest (the first len(expected) items)."""
    failures = []
    for ident, (item, reply) in enumerate(replies):
        problem = reply.get("error") or workload.check(item, reply["out"])
        if not problem and ident < len(expected) and digest(item, reply["out"]) != expected[ident]:
            problem = "output differs from the committed digest"
        if problem:
            failures.append((ident, problem))
    return failures


def controls_flagged(workload, replies) -> bool:
    """The checker's negative control: a corrupted copy of the first good
    reply must fail its check."""
    for item, reply in replies:
        if "out" in reply and workload.check(item, reply["out"]) is None:
            return workload.check(item, workload.corrupt(reply["out"])) is not None
    return False


def percentile(ordered: list[float], p: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def tail_percentile(n: int) -> int:
    """The highest integer percentile with at least ten samples beyond it
    (50 when there are too few samples for any)."""
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 50


class Outcome:
    """What one workload run reports: checks, metrics and report lines."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.correct = True
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def account(self, replies):
        expected = load_digests()[self.workload.name] if self.seed == DEFAULT_SEED else []
        failures = find_failures(self.workload, replies, expected)
        self.attempted += len(replies)
        self.failed += len(failures)
        for ident, problem in failures[:5]:
            self.lines.append(f"  FAILED item {ident}: {problem.strip().splitlines()[-1]}")
        controls = controls_flagged(self.workload, replies)
        if not controls:
            self.lines.append("  FAILED: the checker did not flag its negative control")
        self.correct = self.correct and not failures and controls

    def metric(self, name: str, value: float, unit: str, note: str = ""):
        self.metrics[name] = (value, unit)
        self.lines.append(f"  {name:<34} {value:>14.6g} {unit:<8} {note}".rstrip())


def measure(workload, seed: int, seconds: float) -> Outcome:
    out = Outcome(workload, seed)
    setups = []
    for _ in range(SETUP_SPAWNS):
        with Child(workload.warmup) as child:
            setups.append(child.setup_s)
            child.stop()
    with Child(workload.warmup) as child:
        setups.append(child.setup_s)
        min_passes = TAIL_BEYOND // workload.costliest_per_pass + 1
        replies, pass_seconds = timed_loop(child, workload, seed, seconds, min_passes)
        final = child.stop()
    out.account(replies)

    n = len(replies)
    latencies = sorted(r["dt"] for _, r in replies if "dt" in r) or [0.0]
    tail = tail_percentile(len(latencies))
    out.metric("items_per_s", items_per_s(replies, pass_seconds), "1/s",
               f"{n} items in {len(pass_seconds)} passes, {sum(pass_seconds):.2f} s")
    out.metric("item_p50_ms", percentile(latencies, 50) * 1e3, "ms", f"p50 of {len(latencies)}")
    out.metric("item_tail_ms", percentile(latencies, tail) * 1e3, "ms",
               f"p{tail} of {len(latencies)}, max {latencies[-1] * 1e3:.1f} ms")
    out.metric("setup_s", statistics.median(setups), "s",
               f"median of {len(setups)} spawns, range {min(setups):.3f}-{max(setups):.3f} s")
    out.metric("peak_rss_mb", final["peak_rss_mb"], "MB", "measured child")
    out.metric("ok_frac", 1.0 - out.failed / max(1, out.attempted), "frac",
               f"{out.failed} of {out.attempted} items failed a check")
    return out


def import_times() -> tuple[float, float]:
    """Median cumulative import time of tlbraid and of numpy within it, from
    ``python -X importtime -c "import tlbraid"``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    samples = {"tlbraid": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tlbraid"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=EXIT_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e6)
    return statistics.median(samples["tlbraid"]), statistics.median(samples["numpy"])


def measure_traced(workload, seed: int, seconds: float) -> Outcome:
    """Per-layer metrics from a traced child, which alternates pass by pass
    with an untraced one so that both see the same load on the machine."""
    out = Outcome(workload, seed)
    plain, plain_passes, traced, traced_passes = [], [], [], []
    layers = {}
    with Child(workload.warmup) as plain_child, \
            Child(workload.warmup, trace=True) as traced_child:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not layers:
            k = len(plain_passes)
            plain_passes.append(run_pass(plain_child, workload, seed, k, plain))
            traced_passes.append(run_pass(traced_child, workload, seed, k, traced))
            if not layers and len(traced) >= TRACE_ITEMS:
                layers = traced_child.call({"op": "snapshot"})["layers"]
                covered = len(traced)
        plain_child.stop()
        traced_child.stop()
    out.account(plain)
    out.account(traced)

    out.lines.append(f"  per-layer figures cover the traced child's first {covered} items")
    for name, (value, unit) in layers.items():
        out.metric(name, value, unit)
    import_s, numpy_s = import_times()
    out.metric("cli.import_s", import_s, "s", f"median of {IMPORT_PROBES} probes")
    out.metric("cli.import_numpy_s", numpy_s, "s", f"median of {IMPORT_PROBES} probes")
    plain_rate = items_per_s(plain, plain_passes)
    traced_rate = items_per_s(traced, traced_passes)
    out.metric("trace.overhead_items_per_s", traced_rate - plain_rate, "1/s",
               f"traced {traced_rate:.4g} ({len(traced)} items) - untraced "
               f"{plain_rate:.4g} ({len(plain)} items)")
    slowest = sorted(((r.get("dt", 0.0), ident) for ident, (_, r) in enumerate(traced)),
                     reverse=True)[:3]
    out.lines.append("  slowest traced items: " + ", ".join(
        f"#{ident} {dt * 1e3:.1f} ms" for dt, ident in slowest))
    return out


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": read_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": nproc(),
        "nproc": nproc(),
        "seed": seed,
    }


def write_digests() -> int:
    """Record the canonical-output digests of the default seed's first passes."""
    digests = {}
    for workload in WORKLOADS.values():
        items = [item for k in range(DIGEST_PASSES)
                 for item in workload.pass_items(DEFAULT_SEED, k)]
        with Child(workload.warmup) as child:
            replies = [(item, child.call({"op": "item", "id": i, "item": item}))
                       for i, item in enumerate(items)]
            child.stop()
        for ident, problem in find_failures(workload, replies, []):
            print(f"error: {workload.name} item {ident}: {problem}", file=sys.stderr)
            return 1
        digests[workload.name] = [digest(item, reply["out"]) for item, reply in replies]
    DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {DIGEST_FILE}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tlbraid benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tlbraid" / "__init__.py").is_file():
        print(f"error: no tlbraid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_digests:
        return write_digests()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.seed)))
    outcomes = []
    for name in names:
        workload = WORKLOADS[name]
        measure_one = measure_traced if args.trace else measure
        outcome = measure_one(workload, args.seed, args.seconds)
        print(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("\n".join(outcome.lines))
        outcomes.append(outcome)

    prefix = len(outcomes) > 1
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            (f"{o.workload.name}.{name}" if prefix else name): {"value": value, "unit": unit}
            for o in outcomes
            for name, (value, unit) in o.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
