"""Command-line front end: expansions, verification suites, congruence scans.

Exit codes form a contract for CI consumption; past argument parsing, a refusal
prints one stderr line, and each package error carries its code as ``exit_code``:

* 0 - success / all checks passed
* 1 - a verification check failed
* 2 - usage or argument validation error, or an argument too large to
      compute with
* 3 - data-integrity alarm (fractional valuation, non-integral coefficient,
      falsified fixture sign)
* 4 - insufficient precision (the minimum that would suffice is printed
      when known)

The basis cache directory is resolved from --cache-dir, then the
ETAFORMS_CACHE_DIR environment variable, then the local default
``.etaforms_cache``; pass --no-cache-dir to keep everything in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .basis import BasisCache
from .errors import EtaformsError
from .leveldata import SUPPORTED_LEVELS

FIXTURE_VERSION = 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_PRECISION = 4
_LABELS = {EXIT_INTEGRITY: "data integrity error", EXIT_PRECISION: "insufficient precision"}

# The checks load on demand, in cmd_verify and cmd_scan, as does the fixture
# validation in cmd_validate.  The checks' names stay attributes of this
# module, as perfbench/selftest.py reads them here.
_VERIFY_NAMES = ("admissible_residues", "al_identity_check", "congruence_scan", "duality_check",
                 "genfun_check", "rows_to_csv", "theta_check", "up_lemma_check")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _document(command: str, params: dict, payload: dict, summary: dict) -> dict:
    return {
        "tool_version": __version__,
        "fixture_version": FIXTURE_VERSION,
        "command": command,
        "params": params,
        **payload,
        "summary": summary,
    }


def _emit(doc: dict, text: str, args, csv_text: str | None = None) -> None:
    if args.format == "json":
        _print(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        _print(csv_text)
    else:
        _print(text + "\n")
    if args.report:
        _write_report(args.report, doc, csv_text)


def _print(text: str) -> None:
    """Write ``text`` to stdout.  A reader that is gone, as after ``| head``,
    costs the rest of the output, not a traceback: stdout is pointed at the
    null device, so no later flush raises, and the command keeps its exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_report(path: str, doc: dict, csv_text: str | None) -> None:
    if path.endswith(".csv"):              # only scan, which passes csv_text, accepts one
        content = csv_text
    else:
        content = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as err:
        raise ValueError(f"cannot write report {path}: {err.strerror}") from err


def _json_report_path(path: str) -> str:
    if path.endswith(".csv"):
        raise argparse.ArgumentTypeError("CSV reports are only available for scan rows")
    return path


def _resolve_cache(args) -> BasisCache:
    if getattr(args, "no_cache_dir", False):
        return BasisCache()
    directory = getattr(args, "cache_dir", None) or os.environ.get("ETAFORMS_CACHE_DIR") \
        or ".etaforms_cache"
    return BasisCache(directory=directory)


def _persist(cache: BasisCache) -> None:
    """Save the cache; a file it cannot write costs a warning, not the command's result."""
    if cache.directory:
        try:
            cache.save()
        except OSError as err:
            print(f"warning: basis cache not saved ({type(err).__name__}: {err})", file=sys.stderr)


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


# ----------------------------------------------------------------------
# subcommands

def cmd_expand(args) -> int:
    if args.prec is not None and args.prec < 16:
        raise ValueError("--prec must be at least 16")
    if args.terms < 1:
        raise ValueError("--terms must be positive")
    cache = _resolve_cache(args)
    space = "S" if args.space == "S" else "M"
    prec = args.prec if args.prec is not None else max(16, args.m + 2 * args.terms + 16)
    for _ in range(6):
        elem = cache.element(args.level, args.weight, space, args.m, prec=prec)
        series = elem.expansion.truncated(prec)
        shown = sum(1 for _ in series.terms())
        if shown >= args.terms or args.prec is not None:
            break
        prec *= 2
    for e, _ in series.terms():
        elem.integer_coeff(e)
    text = series.pretty(max_terms=args.terms)
    doc = _document(
        "expand",
        {"level": args.level, "weight": args.weight, "space": space,
         "m": args.m, "terms": args.terms, "prec": prec},
        {"coeffs": series.to_json()},
        {"pass": True, "failures": 0, "precision": prec},
    )
    _emit(doc, text, args)
    _persist(cache)
    return EXIT_PASS


def cmd_validate(args) -> int:
    from . import validate
    if args.prec < 1:
        raise ValueError("--prec must be positive")
    report = validate.validate_level(args.level, args.prec)
    doc = _document(
        "validate", {"level": args.level, "prec": args.prec},
        {"checks": report.to_json()["checks"]},
        {"pass": report.ok, "failures": sum(not c.passed for c in report.checks),
         "precision": report.prec},
    )
    _emit(doc, report.render_text(), args)
    return EXIT_PASS if report.ok else EXIT_INTEGRITY


def cmd_verify(args) -> int:
    from . import verify
    if args.weight is not None and args.check not in ("duality", "genfun"):
        raise ValueError(f"verify {args.check} takes no --weight")
    weight = args.weight or 0
    cache = _resolve_cache(args)
    if args.check == "duality":
        nwindow = args.window * 2 if args.nwindow is None else args.nwindow
        report = verify.duality_check(args.level, weight, args.window, nwindow, cache=cache)
    elif args.check == "genfun":
        report = verify.genfun_check(args.level, weight, args.mmax, args.zprec, cache=cache)
    elif args.check == "theta":
        report = verify.theta_check(args.level, args.mmax, cache=cache)
    elif args.check == "uplemma":
        report = verify.up_lemma_check(args.level, args.mmax, args.zero_window, cache=cache)
    elif args.check == "al":
        r_set = [1, 5, 7] if args.rset is None else _parse_int_list(args.rset)
        report = verify.al_identity_check(args.level, args.p, r_set, args.amax, cache=cache)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown check {args.check}")
    doc = _document(
        f"verify {args.check}", report.params,
        {"report": report.to_json()},
        {"pass": report.passed, "failures": len(report.counterexamples),
         "precision": report.precision},
    )
    _emit(doc, report.render_text(), args)
    _persist(cache)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_scan(args) -> int:
    from . import verify
    if args.require_weak and (args.level, args.p) not in ((18, 2), (12, 3)):
        raise ValueError(f"no weak congruence case for level {args.level}, p = {args.p}")
    cache = _resolve_cache(args)
    r_set = None if args.rset is None else _parse_int_list(args.rset)
    s_set = None if args.sset is None else _parse_int_list(args.sset)
    rows, report = verify.congruence_scan(args.level, args.p, args.amax, args.bmax,
                                          r_set=r_set, s_set=s_set, n_cap=args.ncap, cache=cache)
    if args.require_weak:
        side = 3 if args.level == 18 else 2
        rows = [row for row in rows if row.r % side]
        report.details["rows_after_weak_filter"] = len(rows)
    doc = _document(
        "scan", report.params,
        {"rows": [r.to_json() for r in rows]},
        {"pass": report.passed, "failures": len(report.counterexamples),
         "precision": report.precision},
    )
    _emit(doc, report.render_text(), args, verify.rows_to_csv(rows))
    _persist(cache)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_cache(args) -> int:
    cache = _resolve_cache(args)
    directory = cache.directory
    if directory and os.path.exists(directory) and not os.path.isdir(directory):
        raise ValueError(f"cache directory {directory} is not a directory")
    files = cache.files() if directory and os.path.isdir(directory) else None
    if args.action == "info" and files is None:
        lines = [f"cache directory: {directory or '(memory only)'} (absent)"]
    elif args.action == "info":
        lines = [f"cache directory: {directory}",
                 f"families: {len(files)}, total {sum(map(os.path.getsize, files))} bytes"]
        lines += [f"  {os.path.basename(f)}" for f in files]
    elif files is None:
        lines = ["nothing to clear"]
    else:
        for f in files:
            os.remove(f)
        lines = [f"removed {len(files)} cache files from {directory}"]
    _print("".join(line + "\n" for line in lines))
    return EXIT_PASS


# ----------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaforms",
        description="Exact canonical bases of weakly holomorphic modular forms "
                    "for levels 6, 10, 12, 18: expansions, identity verification, "
                    "congruence scans.",
        epilog="Cache directory resolution: --cache-dir, then ETAFORMS_CACHE_DIR, "
               "then ./.etaforms_cache (use --no-cache-dir for memory only).",
    )
    parser.add_argument("--version", action="version", version=f"etaforms {__version__}")
    cache_opts = argparse.ArgumentParser(add_help=False)
    cache_opts.add_argument("--cache-dir", help="basis cache directory")
    cache_opts.add_argument("--no-cache-dir", action="store_true", help="disable cache persistence")
    common = argparse.ArgumentParser(add_help=False, parents=[cache_opts])
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--report", type=_json_report_path, help="write a JSON report file")

    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common],
                              help="print the q-expansion of a basis element")
    p_expand.add_argument("--level", type=int, required=True, choices=SUPPORTED_LEVELS)
    p_expand.add_argument("--weight", type=int, required=True)
    p_expand.add_argument("--space", choices=("M", "S"), default="M")
    p_expand.add_argument("--m", type=int, required=True, help="pole order at infinity")
    p_expand.add_argument("--terms", type=int, default=8, help="nonzero terms to print")
    p_expand.add_argument("--prec", type=int, help="fixed working precision (>= 16)")
    p_expand.set_defaults(fn=cmd_expand)

    p_validate = sub.add_parser("validate", parents=[common],
                                help="run the structural checks on one level's constants")
    p_validate.add_argument("--level", type=int, required=True, choices=SUPPORTED_LEVELS)
    p_validate.add_argument("--prec", type=int, default=64)
    p_validate.set_defaults(fn=cmd_validate)

    p_verify = sub.add_parser("verify", parents=[common], help="run an identity check")
    p_verify.add_argument("check", choices=("duality", "genfun", "theta", "uplemma", "al"))
    p_verify.add_argument("--level", type=int, required=True, choices=SUPPORTED_LEVELS)
    p_verify.add_argument("--weight", type=int)                  # duality and genfun; default 0
    p_verify.add_argument("--window", type=int, default=15, help="duality: max pole order")
    p_verify.add_argument("--nwindow", type=int, help="duality: max dual index (default 2 * window)")
    p_verify.add_argument("--mmax", type=int, default=10)
    p_verify.add_argument("--zprec", type=int, default=32)
    p_verify.add_argument("--zero-window", type=int, default=40)
    p_verify.add_argument("--p", type=int, default=2)
    p_verify.add_argument("--rset", help="comma-separated residues for the al check")
    p_verify.add_argument("--amax", type=int, default=2)
    p_verify.set_defaults(fn=cmd_verify)

    p_scan = sub.add_parser("scan", parents=[cache_opts], help="congruence valuation scan")
    p_scan.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_scan.add_argument("--report", help="write a JSON or CSV report file")
    p_scan.add_argument("--level", type=int, required=True, choices=SUPPORTED_LEVELS)
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--amax", type=int, default=4)
    p_scan.add_argument("--bmax", type=int, default=4)
    p_scan.add_argument("--rset", help="comma-separated residues (default: first three admissible)")
    p_scan.add_argument("--sset", help="comma-separated residues (default: first three admissible)")
    p_scan.add_argument("--ncap", type=int, default=400, help="cap on both coefficient indices")
    p_scan.add_argument("--require-weak", action="store_true",
                        help="restrict to rows where only the weak bounds apply "
                             "(levels 18/p=2 and 12/p=3)")
    p_scan.set_defaults(fn=cmd_scan)

    p_cache = sub.add_parser("cache", parents=[cache_opts], help="inspect or clear the basis cache")
    p_cache.add_argument("action", choices=("info", "clear"))
    p_cache.set_defaults(fn=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse uses exit 2 for usage errors and 0 for --help/--version
        return 0 if err.code in (0, None) else EXIT_USAGE
    try:
        report = getattr(args, "report", None)
        # refuse before any work, not after printing the whole report
        if report and not os.path.isdir(os.path.dirname(report) or "."):
            raise ValueError(f"the directory of report {report} does not exist")
        if report and os.path.isdir(report):
            raise ValueError(f"cannot write report {report}: Is a directory")
        return args.fn(args)
    except (EtaformsError, ValueError, OverflowError) as err:
        # a ValueError or OverflowError (an argument too large to compute with) is usage
        code = getattr(err, "exit_code", EXIT_USAGE)
        needed = getattr(err, "needed", None)
        hint = f" (needs precision >= {needed})" if needed else ""
        print(f"{_LABELS.get(code, 'error')}: {err}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
