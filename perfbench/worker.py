"""Child process of the benchmark: one measurement in a fresh interpreter.

    worker.py setup                      time `import etaforms` + fixture parsing
    worker.py reference                  time the standard-library imports of set-up
    worker.py run WORKLOAD SEED [TRACE]  one pass of an in-process workload
    worker.py cli TRACE ARGV...          one traced `etaforms` command

`run` prints one JSON line with the pass's time and, per operation, its
time and the digest of its canonical output, and the probe times taken
before the first operation and after each one.  With TRACE it installs the
tracer around the pass and writes the spans to that file.  `cli` runs
etaforms.cli.main(ARGV) with the tracer installed and exits with its code.
etaforms must be importable (the benchmark puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

PROBE_LOOPS = 200_000


def setup() -> None:
    start = perf_counter()
    import etaforms  # noqa: F401
    from etaforms.leveldata import get_level
    for n in (6, 10, 12, 18):
        get_level(n)
    print(json.dumps({"seconds": perf_counter() - start}))


def reference() -> None:
    """Time of importing the standard-library modules that etaforms imports,
    in a fresh interpreter: the kind of work set-up does, with no etaforms
    code.  The benchmark scales each set-up sample by the reference times
    taken just before and after it (see run.py)."""
    start = perf_counter()
    import argparse, csv, dataclasses, fractions, importlib.resources, pathlib, re, threading  # noqa: E401,F401
    print(json.dumps({"seconds": perf_counter() - start}))


def probe() -> float:
    """Time of a fixed loop of small-integer arithmetic: no etaforms code, no
    objects for the garbage collector.  The benchmark times it next to every
    operation and scales the operation's time by it (see run.py), because a
    shared machine's speed drifts within seconds."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - start


def run(workload: str, seed: int, trace_path: str | None) -> None:
    from etaforms.basis import BasisCache
    from etaforms.leveldata import get_level

    from tracer import Tracer
    from workloads import LEVELS, digest, inprocess_ops

    for n in LEVELS:            # fixture parsing is set-up, not the workload
        get_level(n)
    tracer = Tracer().install() if trace_path else None
    cache = BasisCache()
    ops, wall, probes = [], 0.0, [probe()]
    for name, op in inprocess_ops(workload, seed):
        start = perf_counter()
        try:
            text, extra = op(cache)
            record = {"name": name, "digest": digest(text), **extra}
        except Exception as err:   # a failed operation is reported, not fatal
            record = {"name": name, "error": f"{type(err).__name__}: {err}"}
        record["seconds"] = perf_counter() - start
        wall += record["seconds"]
        ops.append(record)
        probes.append(probe())
    out = {"wall_s": wall, "ops": ops, "probe_s": probes}
    if tracer is not None:
        tracer.remove()
        out["wrappers_removed"] = tracer.removed_cleanly()
        out["trace"] = tracer.raw()
        tracer.write(trace_path)
    print(json.dumps(out))


def cli(trace_path: str, argv: list[str]) -> None:
    from tracer import Tracer
    tracer = Tracer().install()
    from etaforms import cli as etaforms_cli
    try:
        code = etaforms_cli.main(argv)
    finally:
        tracer.remove()
        tracer.write(trace_path)
    sys.exit(code)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup()
    elif mode == "reference":
        reference()
    elif mode == "run":
        run(rest[0], int(rest[1]), rest[2] if len(rest) > 2 else None)
    elif mode == "cli":
        cli(rest[0], rest[1:])
    else:
        sys.exit(f"unknown mode {mode}")
