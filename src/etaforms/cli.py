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
Each command, and each ``verify`` check, declares only the options it reads;
any other is argparse's usage error (exit 2).
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
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, as 1,5,7, not {text!r}") from None


# ----------------------------------------------------------------------
# subcommands

def cmd_expand(args) -> int:
    if args.prec is not None and args.prec < 16:
        raise ValueError("--prec must be at least 16")
    if args.terms < 1:
        raise ValueError("--terms must be positive")
    cache = _resolve_cache(args)
    prec = args.prec if args.prec is not None else max(16, args.m + 2 * args.terms + 16)
    for _ in range(6):
        elem = cache.element(args.level, args.weight, args.space, args.m, prec=prec)
        series = elem.expansion.truncated(prec)
        shown = sum(1 for _ in series.terms())
        if shown >= args.terms or args.prec is not None:
            break
        prec *= 2
    text = series.pretty(max_terms=args.terms)
    doc = _document(
        "expand",
        {"level": args.level, "weight": args.weight, "space": args.space,
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
    cache = _resolve_cache(args)
    report = args.run(verify, args, cache)
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
    rows, report = verify.congruence_scan(args.level, args.p, args.amax, args.bmax, r_set=args.rset,
                                          s_set=args.sset, n_cap=args.ncap, cache=cache)
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
    # one declaration per command and check; no abbreviations, or expand would read --p as --prec
    parser = argparse.ArgumentParser(
        prog="etaforms", allow_abbrev=False,
        description="Exact canonical bases of weakly holomorphic modular forms "
                    "for levels 6, 10, 12, 18: expansions, identity verification, "
                    "congruence scans.",
        epilog="Cache directory resolution: --cache-dir, then ETAFORMS_CACHE_DIR, "
               "then ./.etaforms_cache (use --no-cache-dir for memory only).",
    )
    parser.add_argument("--version", action="version", version=f"etaforms {__version__}")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--level", type=int, required=True, choices=SUPPORTED_LEVELS)
    cache_opts = argparse.ArgumentParser(add_help=False)
    cache_opts.add_argument("--cache-dir", help="basis cache directory")
    cache_opts.add_argument("--no-cache-dir", action="store_true", help="disable cache persistence")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--report", type=_json_report_path, help="write a JSON report file")
    common = [level, cache_opts, output]

    def command(subparsers, name, help, parents=common, **defaults):
        p = subparsers.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        p.set_defaults(**defaults)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = command(sub, "expand", "print the q-expansion of a basis element", fn=cmd_expand)
    p_expand.add_argument("--weight", type=int, required=True)
    p_expand.add_argument("--space", choices=("M", "S"), default="M")
    p_expand.add_argument("--m", type=int, required=True, help="pole order at infinity")
    p_expand.add_argument("--terms", type=int, default=8, help="nonzero terms to print")
    p_expand.add_argument("--prec", type=int, help="fixed working precision (>= 16)")

    p_validate = command(sub, "validate", "run the structural checks on one level's constants",
                         [level, output], fn=cmd_validate)
    p_validate.add_argument("--prec", type=int, default=64)

    # a check's function is read from the verify module (v) at call time: a tracer may wrap it
    checks = command(sub, "verify", "run an identity check", [], fn=cmd_verify) \
        .add_subparsers(dest="check", required=True)
    p_duality = command(checks, "duality", "Zagier duality", run=lambda v, a, c: v.duality_check(
        a.level, a.weight, a.window, a.window * 2 if a.nwindow is None else a.nwindow, cache=c))
    p_duality.add_argument("--weight", type=int, default=0)
    p_duality.add_argument("--window", type=int, default=15, help="max pole order")
    p_duality.add_argument("--nwindow", type=int, help="max dual index (default 2 * window)")
    p_genfun = command(checks, "genfun", "the generating function", run=lambda v, a, c:
                       v.genfun_check(a.level, a.weight, a.mmax, a.zprec, cache=c))
    p_genfun.add_argument("--weight", type=int, default=0)
    p_genfun.add_argument("--mmax", type=int, default=10)
    p_genfun.add_argument("--zprec", type=int, default=32)
    p_theta = command(checks, "theta", "the theta relation", run=lambda v, a, c:
                      v.theta_check(a.level, a.mmax, cache=c))
    p_theta.add_argument("--mmax", type=int, default=10)
    p_uplemma = command(checks, "uplemma", "index-lowering by u_p", run=lambda v, a, c:
                        v.up_lemma_check(a.level, a.mmax, a.zero_window, cache=c))
    p_uplemma.add_argument("--mmax", type=int, default=10)
    p_uplemma.add_argument("--zero-window", type=int, default=40)
    p_al = command(checks, "al", "the Atkin-Lehner identity", run=lambda v, a, c:
                   v.al_identity_check(a.level, a.p, a.rset, a.amax, cache=c))
    p_al.add_argument("--p", type=int, default=2)
    p_al.add_argument("--rset", type=_parse_int_list, default="1,5,7",
                      help="comma-separated residues")
    p_al.add_argument("--amax", type=int, default=2)

    p_scan = command(sub, "scan", "congruence valuation scan", [level, cache_opts], fn=cmd_scan)
    p_scan.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_scan.add_argument("--report", help="write a JSON or CSV report file")
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--amax", type=int, default=4)
    p_scan.add_argument("--bmax", type=int, default=4)
    residues = "comma-separated residues (default: first three admissible)"
    p_scan.add_argument("--rset", type=_parse_int_list, help=residues)
    p_scan.add_argument("--sset", type=_parse_int_list, help=residues)
    p_scan.add_argument("--ncap", type=int, default=400, help="cap on both coefficient indices")
    p_scan.add_argument("--require-weak", action="store_true",
                        help="restrict to rows where only the weak bounds apply "
                             "(levels 18/p=2 and 12/p=3)")

    p_cache = command(sub, "cache", "inspect or clear the basis cache", [cache_opts], fn=cmd_cache)
    p_cache.add_argument("action", choices=("info", "clear"))
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
        if isinstance(err, OverflowError):      # name each argument past every index
            hint = "".join(f" (--{name.replace('_', '-')} {value} is too large)" for name, value
                           in vars(args).items() if type(value) is int and abs(value) > sys.maxsize)
        print(f"{_LABELS.get(code, 'error')}: {err}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
