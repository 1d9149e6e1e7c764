"""Child process of the tlbraid benchmark: executes items sent over a pipe.

Usage: python bench/worker.py SRC_DIR [--trace]

The parent spawns one worker per run and acts as a single closed-loop
caller. The protocol is one JSON object per line. The worker imports
tlbraid, runs the warm-up item the parent sends first and answers
{"ready": true}; then for each {"op": "item", "id": ..., "item": {...}} it
answers {"id", "dt", "out"} (or {"id", "error"}), for {"op": "snapshot"}
the traced per-layer metrics, and for {"op": "stop"} its peak RSS, and
exits. Only the library call is timed; encoding the reply is not.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    src = sys.argv[1]
    trace = "--trace" in sys.argv[2:]
    proto_in = sys.stdin
    proto_out = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # whatever the library prints goes to stderr, not the pipe
    sys.path.insert(0, src)

    # Calls go through module attributes so that the tracer's patches apply.
    import tlbraid
    import tlbraid.cli

    points = {
        "+phi": lambda: tlbraid.fibonacci_params(1),
        "-phi": lambda: tlbraid.fibonacci_params(-1),
        "generic": lambda: tlbraid.make_params(1.5),
    }

    def run_jones(item):
        word = tlbraid.BraidWord(item["n"], tuple(item["word"]))
        return tlbraid.format_jones(tlbraid.jones_polynomial(word))

    def run_cli(item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tlbraid.cli.main(item["argv"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def run_verify(item):
        return tlbraid.verify_model(item["n"], points[item["point"]]())

    def encode_verify(report):
        return {
            "delta": report.delta,
            "passed": report.passed,
            "checks": [[c.name, c.passed] for c in report.checks],
        }

    handlers = {
        "jones": (run_jones, None),
        "cli": (run_cli, None),
        "verify": (run_verify, encode_verify),
    }

    def execute(item):
        run, encode = handlers[item["kind"]]
        start = time.perf_counter()
        raw = run(item)
        dt = time.perf_counter() - start
        return dt, encode(raw) if encode else raw

    def send(obj):
        proto_out.write(json.dumps(obj) + "\n")

    warm = json.loads(proto_in.readline())
    execute(warm)
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    send({"ready": True})

    for line in proto_in:
        msg = json.loads(line)
        op = msg["op"]
        if op == "item":
            try:
                dt, out = execute(msg["item"])
            except Exception:  # a failing item is a counted failure, not a crash
                send({"id": msg["id"], "error": traceback.format_exc()})
            else:
                send({"id": msg["id"], "dt": dt, "out": out})
            if tracer is not None:
                tracer.end_item()
        elif op == "snapshot":
            send({"layers": tracer.metrics() if tracer else {}})
        elif op == "stop":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send({"peak_rss_mb": rss_kb / 1024.0})
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
