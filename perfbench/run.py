"""etaforms benchmark: three workloads, every output checked against the
committed references in refs.json, metrics printed as one JSON line.

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 50 --trace 0

Workloads (see workloads.py): scan-cold, verify-suite, cli-session, or
``all`` to run the three in turn.  BENCHMARK.json lists only verify-suite
and cli-session, which between them reach every layer; scan-cold is kept
for runs by hand.  Run from any directory; the program is
imported from src/ next to this directory, and scratch files go to
.perfbench/ at the repository root.

--trace 0 measures the end-to-end metrics: setup_s (median over fresh
interpreters of `import etaforms` plus fixture parsing), wall_s (the
workload's fixed operations: the sum over operations of each one's median
time across passes, each pass in a fresh process) and peak_rss_mb (largest
RSS of any child process).  setup_s and wall_s are scaled to a machine on
which the set-up reference takes SETUP_REF_S and the speed probe takes
PROBE_REF_S (see measure); the unscaled times are printed on a "#" line.
--trace 1 makes one untraced and one traced pass and prints the per-layer
metrics from tracer.py, the tracing overhead, and the cli.* metrics.

An operation is one scan, one check or one command.  It fails when it
raises, exits non-zero, or its output differs from the reference.  An
in-process operation that fails leaves no correct output, so it also makes
"correct" false.  A failed cli-session command is re-run with
--no-cache-dir, the user's way to get the answer, and that time counts
toward the command's latency; "correct" turns false only when the re-run
fails or differs too, or when a command's output differs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import probe  # noqa: E402

WORKLOADS = ("scan-cold", "verify-suite", "cli-session")
MIN_PASSES = 3
SETUP_SAMPLES = 8          # fresh interpreters timed before each pass
PROBE_REF_S = 0.02         # probe time that reported times are scaled to
SETUP_REF_S = 0.02         # set-up reference time that setup_s is scaled to
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 150           # stop starting passes after this, whatever the minimum
KINDS = ("cold", "warm", "miss")


class Run:
    """Child processes, scratch space and failure counts of one workload run."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.refs = json.loads((HERE / "refs.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []         # traced cli-session commands
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("ETAFORMS_CACHE_DIR", None)

    def spawn(self, argv: list[str]) -> tuple[int, str, str, float]:
        """Run argv to completion; one that outlasts PASS_TIMEOUT_S is killed
        and reported as a failed exit."""
        start = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.scratch, env=self.env, capture_output=True,
                                  text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, "", f"timed out after {PASS_TIMEOUT_S} s", perf_counter() - start
        return proc.returncode, proc.stdout, proc.stderr, perf_counter() - start

    def record(self, name: str, ok: bool, wrong: bool = False, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {why}")
        if wrong:
            self.wrong += 1

    # -- set-up ----------------------------------------------------------------

    def worker_time(self, mode: str) -> float:
        """Time of `worker.py setup` or `worker.py reference` in a fresh interpreter."""
        code, out, err, _ = self.spawn([sys.executable, str(HERE / "worker.py"), mode])
        if code:
            raise SystemExit(f"{mode} failed: {err.strip()}")
        return json.loads(out)["seconds"]

    def setup_samples(self, count: int) -> list[tuple[float, float]]:
        """`count` set-up times, each with the mean of the reference times
        taken just before and after it."""
        times, refs = [], [self.worker_time("reference")]
        for _ in range(count):
            times.append(self.worker_time("setup"))
            refs.append(self.worker_time("reference"))
        return list(zip(times, bracketing(refs)))

    # -- in-process workloads --------------------------------------------------

    def inprocess_pass(self, trace_path: Path | None) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), "run", self.workload, str(self.seed)]
        if trace_path:
            argv.append(str(trace_path))
        code, out, err, elapsed = self.spawn(argv)
        if code or not out.strip():
            for name, _ in workloads.inprocess_ops(self.workload, self.seed):
                self.record(name, False, wrong=True,
                            why=f"worker exited {code}: {err.strip()[-300:]}")
            return {"wall_s": elapsed, "ops": [], "op_s": [], "op_probe_s": []}
        result = json.loads(out.strip().splitlines()[-1])
        for op in result["ops"]:
            self.check_op(op)
        result["op_s"] = [op["seconds"] for op in result["ops"]]
        result["op_probe_s"] = bracketing(result.pop("probe_s"))
        return result

    def check_op(self, op: dict) -> None:
        name = op["name"]
        if "error" in op:           # no output left to check
            self.record(name, False, wrong=True, why=op["error"])
            return
        if self.workload == "verify-suite":
            same = op["digest"] == self.refs["verify"][name]
        else:
            same = self.scan_matches(name, op)
        self.record(name, same and op["passed"], wrong=not same, why="output differs")

    def scan_matches(self, name: str, op: dict) -> bool:
        n, p = (int(x) for x in name.split("-")[1:])
        r_set, s_set = workloads.scan_residues(self.seed)[(n, p)]
        expected = {f"{r},{s}": self.refs["scan_groups"][f"{n},{p}"].get(f"{r},{s}")
                    for r in r_set for s in s_set}
        full = self.refs["scan_full"].get(str(self.seed), {}).get(f"{n},{p}")
        return op["groups"] == expected and full in (None, op["digest"])

    # -- cli-session -------------------------------------------------------------

    def cli_pass(self, traced: bool) -> dict:
        cache_dir = self.scratch / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        kinds = dict.fromkeys(KINDS, 0.0)
        main_s = dict.fromkeys(KINDS, 0.0)
        raws, op_s, probes = [], [], [probe()]
        session = {"startup_s": 0.0, "exit_mismatches": 0}
        for i, (kind, argv) in enumerate(workloads.cli_steps(self.seed)):
            latency, raw, code = self.cli_command(argv + ["--cache-dir", str(cache_dir)],
                                                  traced, i, kind)
            probes.append(probe())
            kinds[kind] += latency
            op_s.append(latency)
            if raw is not None:
                raws.append(raw)
                main_time = raw["stats"].get("cli.main", [0, 0.0])[1]
                main_s[kind] += main_time
                session["startup_s"] += latency - main_time
            session["exit_mismatches"] += code != 0
        session["cache_bytes"] = sum(f.stat().st_size for f in cache_dir.rglob("*") if f.is_file())
        session.update(wall_s=sum(op_s), op_s=op_s, op_probe_s=bracketing(probes), kinds=kinds,
                       main_s=main_s, raws=raws)
        return session

    def cli_command(self, argv: list[str], traced: bool, step: int, kind: str):
        """Run one command; on failure re-run it with --no-cache-dir."""
        name = f"step{step + 1}-{kind}: etaforms {' '.join(argv[:-2])}"
        code, out, err, latency, raw = self.etaforms(argv, traced, f"{step}")
        if argv[0] == "cache":
            same = out.splitlines()[:1] == [f"cache directory: {argv[-1]}"]
            self.record(name, code == 0 and same, wrong=code == 0 and not same,
                        why=f"exit {code}, stdout {out[:80]!r}")
            return latency, raw, code
        expected = self.refs["cli"][" ".join(argv[:-2])]
        same = workloads.digest(out) == expected
        last = (err.strip().splitlines() or ["output differs"])[-1]
        self.record(name, code == 0 and same, wrong=code == 0 and not same,
                    why=f"exit {code}: {last}")
        if code != 0:
            code2, out2, _, latency2, raw2 = self.etaforms(argv[:-2] + ["--no-cache-dir"],
                                                           traced, f"{step}-retry")
            latency += latency2
            if raw2 is not None:
                raw = tracer.merge([raw, raw2])
            if code2 != 0 or workloads.digest(out2) != expected:
                self.wrong += 1
                self.failures.append(f"{name}: --no-cache-dir re-run differs too")
        return latency, raw, code

    def etaforms(self, argv: list[str], traced: bool, tag: str):
        if not traced:
            return (*self.spawn([sys.executable, "-m", "etaforms", *argv]), None)
        trace_path = self.scratch / f"trace-{tag}.json"
        code, out, err, latency = self.spawn(
            [sys.executable, str(HERE / "worker.py"), "cli", str(trace_path), *argv])
        doc = json.loads(trace_path.read_text()) if trace_path.exists() else None
        raw = None
        if doc is not None:
            raw = {k: doc[k] for k in ("stats", "layer_outer", "counters")}
            self.spans.append({"argv": argv, "spans": doc["spans"]})
        return code, out, err, latency, raw


# ----------------------------------------------------------------------
# measurement

def measure(run: Run, seconds: float) -> tuple[dict, list, dict]:
    """End-to-end metrics from passes repeated for about `seconds`, and the
    unscaled times they come from.

    A shared machine's speed drifts by tens of percent within seconds, for
    etaforms and for any other Python code alike.  So every timed operation
    is bracketed by the speed probe (worker.probe, a fixed loop with no
    etaforms code), and its time is reported scaled by PROBE_REF_S over the
    mean of the two probe times around it: a change to etaforms moves the
    reported times, a drift in the machine's speed, which moves the probe
    too, mostly does not.  Set-up is mostly the loading of modules, whose
    speed the probe does not follow, so each set-up sample is scaled in the
    same way by the set-up reference (worker.py reference) instead."""
    run.setup_samples(1)        # writes the bytecode caches; not counted
    setup, passes = [], []
    started = perf_counter()
    while True:
        # set-up samples are spread over the run, so that their median does
        # not rest on one stretch of the machine's speed
        setup += run.setup_samples(SETUP_SAMPLES)
        passes.append(run.cli_pass(False) if run.workload == "cli-session"
                      else run.inprocess_pass(None))
        used = perf_counter() - started
        if (len(passes) >= MIN_PASSES and used >= seconds) or used > RUN_LIMIT_S:
            break
    probes = [p for each in passes for p in each["op_probe_s"]]
    unscaled = {"setup_s": statistics.median(t for t, _ in setup),
                "wall_s": sum(op_medians(passes)),
                "setup_ref_s": statistics.median(r for _, r in setup),
                "probe_s": statistics.median(probes) if probes else 0.0}
    metrics = {
        "setup_s": (statistics.median(t * SETUP_REF_S / r for t, r in setup), "s"),
        "wall_s": (sum(op_medians(passes, scaled=True)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes, unscaled


def bracketing(probes: list[float]) -> list[float]:
    """Mean of the probe times just before and just after each operation."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def op_medians(passes: list, scaled: bool = False) -> list[float]:
    """Each operation's median time over the passes, scaled by the probe
    times around it if `scaled`.  Their sum is the workload's time with a
    slow stretch of a shared machine counted only where it hit most passes
    of the same operation."""
    complete = [p for p in passes if p["op_s"]]
    if not complete:            # every pass crashed before timing its operations
        return [statistics.median(p["wall_s"] for p in passes)]
    times = [[t * PROBE_REF_S / probe for t, probe in zip(p["op_s"], p["op_probe_s"])]
             if scaled else p["op_s"] for p in complete]
    return [statistics.median(op) for op in zip(*times)]


def measure_traced(run: Run) -> tuple[dict, list]:
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    if run.workload == "cli-session":
        plain, traced = run.cli_pass(False), run.cli_pass(True)
        raw = tracer.merge(traced["raws"])
        write_json(ROOT / ".perfbench" / "trace-cli-session.json", run.spans)
    else:
        trace_path = ROOT / ".perfbench" / f"trace-{run.workload}.json"
        plain, traced = run.inprocess_pass(None), run.inprocess_pass(trace_path)
        raw = traced.get("trace") or tracer.merge([])
    values = tracer.layer_metrics(raw)
    is_cli = run.workload == "cli-session"
    for kind in KINDS:
        values[f"cli.{kind}_s"] = plain["kinds"][kind] if is_cli else 0.0
        values[f"cli.main_{kind}_s"] = traced["main_s"][kind] if is_cli else 0.0
    values["cli.startup_s"] = traced["startup_s"] if is_cli else 0.0
    values["cli.exit_mismatches"] = traced["exit_mismatches"] if is_cli else 0
    values["cli.cache_bytes"] = plain["cache_bytes"] if is_cli else 0
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    return {name: (values[name], unit) for name, unit in units.items()}, [plain, traced], {}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = target.read_text().strip() if target and target.is_file() else ref
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "git_rev": rev,
            "load1": os.getloadavg()[0]}


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # one CPU for this process and every child: the speed probe then runs
    # where the timed operations run, not on a CPU with other neighbours
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, scratch)
    try:
        metrics, passes, unscaled = measure_traced(run) if trace else measure(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in passes:
        p.pop("raws", None)
    write_json(ROOT / ".perfbench" / f"result-{workload}{'-trace' if trace else ''}.json",
               {"env": env, "workload": workload, "seed": seed, "failures": run.failures,
                "metrics": metrics, "unscaled": unscaled, "passes": passes})
    print(f"# {workload} seed={seed} python={env['python']} nproc={env['nproc']} "
          f"rev={env['git_rev'][:12]} load1={env['load1']:.2f} passes={len(passes)}")
    if not trace:
        summary = " ".join(f"{k}={v:.6g}{u if u in ('s', 'MB') else ' ' + u}"
                           for k, (v, u) in metrics.items())
        extra = ""
        if workload == "cli-session":
            kinds = dict.fromkeys(KINDS, 0.0)
            for (kind, _), t in zip(workloads.cli_steps(seed), op_medians(passes)):
                kinds[kind] += t
            extra = " ".join(f"cli_{k}_s={v:.6g}s" for k, v in kinds.items())
            extra += f" cache_bytes={passes[-1]['cache_bytes']} bytes"
        print(f"# {summary} failed_frac={run.failed}/{run.attempted}")
        print("# unscaled: " + " ".join(f"{k}={v:.6g}s" for k, v in unscaled.items())
              + f" {extra}".rstrip())
    for line in run.failures[:20]:
        print(f"# failed: {line}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "etaforms" / "__init__.py").is_file():
        print(f"error: no etaforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for workload in WORKLOADS:
        code |= subprocess.run([sys.executable, __file__, "--workload", workload,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)]).returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
