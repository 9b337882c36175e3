"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs the traced pass of each workload twice, at the default seed, and
asserts that every count metric (unit count or bytes in BENCHMARK.json) is
identical across the two passes, that the traced outputs pass the oracle, and that the tracer puts
back every attribute it replaced.  Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import sys

import run as bench
import tracer
import workloads


def counted_metrics(r: bench.Run) -> dict:
    if r.workload == "cli-session":
        session = r.cli_pass(True)
        values = tracer.layer_metrics(tracer.merge(session["raws"]))
        values["cli.cache_bytes"] = session["cache_bytes"]
        values["cli.exit_mismatches"] = session["exit_mismatches"]
    else:
        result = r.inprocess_pass(r.scratch / "trace.json")
        assert result.get("wrappers_removed"), f"{r.workload}: wrappers left installed"
        values = tracer.layer_metrics(result["trace"])
    units = {m["name"]: m["unit"] for m in bench.benchmark_spec()["per_layer"]}
    return {k: v for k, v in values.items() if units.get(k) in ("count", "bytes")}


def check_removal() -> None:
    """Install and remove the tracer here, around a small check.  etaforms.cli
    is first imported while the tracer is installed, as in a traced command,
    so its own binding of duality_check must be put back too."""
    from etaforms import verify
    from etaforms.basis import BasisCache
    from etaforms.series import QSeries
    before = {name: vars(QSeries)[name] for name in ("__init__", "__add__", "__mul__")}
    check = verify.duality_check
    t = tracer.Tracer().install()
    from etaforms import cli
    assert cli.duality_check is verify.duality_check is not check
    assert vars(QSeries)["__mul__"] is not before["__mul__"]
    try:
        report = verify.duality_check(6, 0, 4, cache=BasisCache())
    finally:
        t.remove()
    assert report.passed and t.stats["verify.duality"][0] == 1 and t.spans
    assert t.removed_cleanly() and not t.missing, t.missing
    assert verify.duality_check is check and cli.duality_check is check
    assert all(vars(QSeries)[name] is fn for name, fn in before.items())


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    check_removal()
    print("wrappers removed: ok")
    scratch = bench.ROOT / ".perfbench" / "selftest"
    problems = []
    for workload in bench.WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            runs = [bench.Run(workload, workloads.DEFAULT_SEED, scratch) for _ in range(2)]
            first, second = (counted_metrics(r) for r in runs)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        wrong = sum(r.wrong for r in runs)
        print(f"{workload}: {len(first)} counts, {len(differ)} differ, "
              f"{wrong} outputs differ from the references")
        if differ or wrong:
            problems.append((workload, differ, wrong))
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
