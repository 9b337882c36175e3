"""Regenerate refs.json, the reference digest of every benchmark operation.

    python3 perfbench/make_refs.py

The committed refs.json was made at the commit that added the benchmark;
regenerate it only when an output is meant to change.  Scans are recorded
per (r, s) group of rows over every candidate residue, so any seed's scans
can be checked; the full scan outputs of DEFAULT_SEED and HELD_OUT_SEED are
recorded as well.  A cli command's reference is its --no-cache-dir stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, S_CANDIDATES, SCAN_CAP, SCAN_DEPTH, SCAN_PAIRS,
    admissible, cli_reference_argvs, digest, scan_canonical, scan_ops, verify_ops,
)


def main() -> None:
    from etaforms import verify
    from etaforms.basis import BasisCache

    refs = {"scan_groups": {}, "scan_full": {}, "verify": {}, "cli": {}}
    cache = BasisCache()
    for n, p in SCAN_PAIRS:
        rows, report = verify.congruence_scan(n, p, SCAN_DEPTH, SCAN_DEPTH, admissible(p, 3),
                                              admissible(p, S_CANDIDATES), n_cap=SCAN_CAP,
                                              cache=cache)
        _, extra = scan_canonical(rows, report)
        assert extra["passed"], (n, p)
        refs["scan_groups"][f"{n},{p}"] = extra["groups"]
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        cache = BasisCache()
        refs["scan_full"][str(seed)] = full = {}
        for name, op in scan_ops(seed):
            text, extra = op(cache)
            assert extra["passed"], name
            full[name.removeprefix("scan-").replace("-", ",")] = digest(text)
    cache = BasisCache()
    for name, op in verify_ops():
        text, extra = op(cache)
        assert extra["passed"], name
        refs["verify"][name] = digest(text)
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    for argv in cli_reference_argvs():
        proc = subprocess.run([sys.executable, "-m", "etaforms", *argv, "--no-cache-dir"],
                              env=env, capture_output=True, text=True, check=True)
        refs["cli"][" ".join(argv)] = digest(proc.stdout)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
