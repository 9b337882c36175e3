"""The exit-code contract of ``main()`` over a grid of boundary arguments and
file faults: 0 pass, 1 fail, 2 usage, 3 integrity, 4 precision.

Each row runs one command on a fresh cache directory, after planting its
fault if it names one, and asserts the exit code the row expects, that stderr
holds no traceback, that a refusal prints exactly one stderr line, and that a
pass prints the same stdout as the command with --no-cache-dir (``cache``
excepted: it prints the directory).

Sizes stay tiny.  The oversized value is 10^20, past every C index size, so
it fails at once, or as a scan exponent adds no index under the cap; a size
between about 10^7 and 2^63 would try to allocate gigabytes instead, and is
not here.  Neither are argparse's own
refusals (an unknown choice, a value that is not an integer), which print its
usage text, nor permission faults, which do not stop a test run as root.
"""

import os

import pytest

from etaforms.basis import BasisCache

from test_cli import run_cli

HUGE = str(10 ** 20)

EXPAND = ("expand", "--level", "6", "--weight", "0", "--m", "1", "--terms", "4")
VALIDATE = ("validate", "--level", "6")
DUALITY = ("verify", "duality", "--level", "6", "--window", "2")
GENFUN = ("verify", "genfun", "--level", "6", "--mmax", "2")
THETA = ("verify", "theta", "--level", "6", "--mmax", "2")
UPLEMMA = ("verify", "uplemma", "--level", "12", "--mmax", "2")
AL = ("verify", "al", "--level", "6", "--p", "3", "--amax", "1")
SCAN = ("scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1", "--ncap", "20")
INFO = ("cache", "info")
CLEAR = ("cache", "clear")


def cache_dir_is_a_file(tmp_path, cache_dir):
    cache_dir.write_text("not a cache")
    return []


def family_file_is_a_directory(tmp_path, cache_dir):
    (cache_dir / "basis_N6_k0_M.json").mkdir(parents=True)
    return []


def truncated_family_file(tmp_path, cache_dir):
    cache = BasisCache(directory=str(cache_dir))
    cache.rows(6, 0, "M", [1, 2], 30)
    [path] = cache.save()
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    return []


def report_is_a_directory(tmp_path, cache_dir):
    return ["--report", str(tmp_path)]


def report_directory_missing(tmp_path, cache_dir):
    return ["--report", str(tmp_path / "missing" / "report.json")]


# (command, arguments that override or extend it, expected exit code, fault)
GRID = [
    (EXPAND, [], 0, None),
    (EXPAND, ["--m", "0"], 0, None),
    (EXPAND, ["--m", "-1"], 2, None),                                # m0 = 0
    (EXPAND, ["--weight", "2", "--space", "S", "--m", "0"], 2, None),  # m0 = 1
    (EXPAND, ["--weight", "1"], 2, None),
    (EXPAND, ["--prec", "15"], 2, None),                             # the minimum is 16
    (EXPAND, ["--prec", "0"], 2, None),
    (EXPAND, ["--terms", "0"], 2, None),
    (EXPAND, ["--terms", "-1"], 2, None),
    (EXPAND, ["--prec", HUGE], 2, None),
    (EXPAND, ["--m", HUGE], 2, None),
    (VALIDATE, [], 0, None),
    (VALIDATE, ["--prec", "0"], 2, None),
    (VALIDATE, ["--prec", "-1"], 2, None),
    (VALIDATE, ["--prec", "1"], 4, None),                            # short of q^2
    (VALIDATE, ["--prec", HUGE], 2, None),
    (DUALITY, [], 0, None),
    (DUALITY, ["--window", "0"], 0, None),
    (DUALITY, ["--window", "-1"], 0, None),
    (DUALITY, ["--nwindow", "0"], 0, None),
    (DUALITY, ["--weight", "1"], 2, None),
    (DUALITY, ["--weight", "-2"], 0, None),
    (DUALITY, ["--window", HUGE], 2, None),
    (GENFUN, [], 0, None),
    (GENFUN, ["--mmax", "0"], 0, None),
    (GENFUN, ["--mmax", "-3"], 0, None),                             # below -n0: vacuous
    (GENFUN, ["--zprec", "0"], 4, None),
    (GENFUN, ["--zprec", "-1"], 4, None),
    (GENFUN, ["--weight", "1"], 2, None),
    (GENFUN, ["--zprec", HUGE], 2, None),
    (THETA, [], 0, None),
    (THETA, ["--mmax", "0"], 0, None),
    (THETA, ["--mmax", "-1"], 0, None),
    (THETA, ["--mmax", HUGE], 2, None),
    (THETA, ["--weight", "3"], 2, None),                             # theta takes no weight
    (UPLEMMA, [], 0, None),
    (UPLEMMA, ["--mmax", "0"], 0, None),
    (UPLEMMA, ["--mmax", "-1"], 0, None),
    (UPLEMMA, ["--zero-window", "0"], 2, None),
    (UPLEMMA, ["--zero-window", "-1"], 2, None),
    (UPLEMMA, ["--level", "6"], 2, None),                            # levels 12 and 18 only
    (UPLEMMA, ["--zero-window", HUGE], 2, None),
    (UPLEMMA, ["--weight", "0"], 2, None),
    (AL, [], 0, None),
    (AL, ["--amax", "0"], 0, None),
    (AL, ["--amax", "-1"], 0, None),
    (AL, ["--p", "5"], 2, None),
    (AL, ["--p", "0"], 2, None),
    (AL, ["--p", "-2"], 2, None),
    (AL, ["--rset", ""], 0, None),
    (AL, ["--rset", "3"], 2, None),                                  # a multiple of p
    (AL, ["--rset", "0"], 2, None),
    (AL, ["--rset=-1"], 2, None),
    (AL, ["--rset", HUGE], 2, None),
    (AL, ["--amax", "100"], 2, None),                                # p^100 times a row
    (AL, ["--amax", HUGE], 2, None),
    (AL, ["--weight", "1"], 2, None),
    (SCAN, [], 0, None),
    (SCAN, ["--p", "7"], 2, None),
    (SCAN, ["--p", "0"], 2, None),
    (SCAN, ["--p", "-2"], 2, None),
    (SCAN, ["--rset", ""], 0, None),
    (SCAN, ["--sset", ""], 0, None),
    (SCAN, ["--rset", "2"], 2, None),                                # a multiple of p
    (SCAN, ["--rset", "0"], 2, None),
    (SCAN, ["--sset=-1"], 2, None),
    (SCAN, ["--ncap", "0"], 0, None),
    (SCAN, ["--ncap", "-1"], 0, None),
    (SCAN, ["--amax", "-1"], 0, None),
    (SCAN, ["--bmax", "-1"], 0, None),
    (SCAN, ["--require-weak"], 2, None),                             # (6, 2) has no weak case
    (SCAN, ["--ncap", HUGE], 0, None),
    (SCAN, ["--amax", HUGE], 0, None),                               # no index past the cap
    (SCAN, ["--bmax", HUGE], 0, None),
    (INFO, [], 0, None),
    (CLEAR, [], 0, None),
    (EXPAND, [], 0, cache_dir_is_a_file),
    (SCAN, [], 0, cache_dir_is_a_file),
    (INFO, [], 2, cache_dir_is_a_file),
    (CLEAR, [], 2, cache_dir_is_a_file),
    (EXPAND, [], 0, family_file_is_a_directory),
    (INFO, [], 0, family_file_is_a_directory),
    (CLEAR, [], 0, family_file_is_a_directory),
    (EXPAND, [], 0, truncated_family_file),
    (THETA, [], 0, truncated_family_file),
    (EXPAND, [], 2, report_is_a_directory),
    (VALIDATE, [], 2, report_is_a_directory),
    (THETA, [], 2, report_is_a_directory),
    (SCAN, [], 2, report_is_a_directory),
    (EXPAND, [], 2, report_directory_missing),
    (DUALITY, [], 2, report_directory_missing),
    (SCAN, [], 2, report_directory_missing),
]


def row_id(row):
    command, extra, _, fault = row
    words = [*command[:2 if command[0] in ("verify", "cache") else 1]]
    words += [w or "''" for w in extra]
    return " ".join(words + [fault.__name__] if fault else words)


@pytest.mark.parametrize("command, extra, code, fault", GRID, ids=[row_id(row) for row in GRID])
def test_exit_code_grid(capsys, tmp_path, command, extra, code, fault):
    cache_dir = tmp_path / "cache"
    argv = [*command, *extra, *(fault(tmp_path, cache_dir) if fault else [])]
    got, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert got == code, err
    assert "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1, err
    elif command[0] != "cache":
        assert run_cli(capsys, *argv, "--no-cache-dir") == (0, out, "")


@pytest.mark.parametrize("argv, option", [
    ((*AL, "--amax", HUGE), "--amax"),
    ((*THETA, "--weight", "3"), "--weight"),
    ((*UPLEMMA, "--weight", "0"), "--weight"),
    ((*AL, "--weight", "1"), "--weight"),
], ids=["al --amax", "theta --weight", "uplemma --weight", "al --weight"])
def test_refusal_names_its_option(capsys, argv, option):
    code, _, err = run_cli(capsys, *argv, "--no-cache-dir")
    assert code == 2 and option in err
