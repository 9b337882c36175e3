"""Tests for the command-line interface and its exit-code contract."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import etaforms
from etaforms import basis, leveldata
from etaforms.cli import main
from etaforms.eta import EtaCombination, EtaQuotient


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_rows(fam, ms, precs=None):
    raise AssertionError(f"basis rows {list(ms)} built")


class TestExpand:
    def test_hauptmodul_expansion_text(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--level", "6", "--weight", "0",
                               "--m", "1", "--terms", "4", "--no-cache-dir")
        assert code == 0
        assert out.strip() == "q^-1 + 6q + 4q^2 - 3q^3"

    def test_weight2_cusp_space(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--level", "6", "--weight", "2",
                               "--space", "S", "--m", "1", "--terms", "4", "--no-cache-dir")
        assert code == 0
        assert out.strip() == "q^-1 - 6q - 8q^2 + 9q^3"

    def test_first_element_known_past_its_gap(self, capsys):
        # element m0 = -24 has its pivot at q^24, past the default precision
        argv = ("expand", "--level", "12", "--weight", "12", "--m", "-24", "--no-cache-dir")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, wide, _ = run_cli(capsys, *argv, "--prec", "40")
        assert code == 0
        assert out == wide and out.startswith("q^24 - 12q^26 + ")
        assert out.count("q^") == 8

    def test_unsupported_level_is_usage_error(self, capsys):
        code = main(["expand", "--level", "7", "--weight", "0", "--m", "1", "--no-cache-dir"])
        capsys.readouterr()
        assert code == 2

    def test_index_below_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--level", "6", "--weight", "2",
                               "--m", "-5", "--no-cache-dir")
        assert code == 2
        assert "below minimal pole order" in err

    def test_small_prec_rejected(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--level", "6", "--weight", "0",
                                 "--m", "1", "--prec", "8", "--no-cache-dir")
        assert (code, out, err) == (2, "", "error: --prec must be at least 16\n")
        code, out, err = run_cli(capsys, "expand", "--level", "6", "--weight", "0",
                                 "--m", "1", "--terms", "0", "--no-cache-dir")
        assert (code, out, err) == (2, "", "error: --terms must be positive\n")

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--level", "12", "--weight", "0",
                               "--m", "1", "--terms", "3", "--format", "json",
                               "--no-cache-dir")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "expand"
        assert doc["coeffs"]["valuation"] == -1
        assert doc["coeffs"]["coeffs"][0] == "1"
        assert doc["summary"]["pass"] is True


class TestVerify:
    def test_duality_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "duality", "--level", "6",
                               "--weight", "0", "--window", "6", "--no-cache-dir")
        assert code == 0
        assert "pass" in out

    @pytest.mark.parametrize("nwindow, n_max", [([], 6), (["--nwindow", "0"], 0),
                                                 (["--nwindow", "2"], 2)],
                             ids=["default", "zero", "two"])
    def test_duality_reports_the_dual_window_asked_for(self, capsys, nwindow, n_max):
        from etaforms.verify import duality_check
        code, out, _ = run_cli(capsys, "verify", "duality", "--level", "6", "--window", "3",
                               *nwindow, "--no-cache-dir")
        report = duality_check(6, 0, 3, n_max, cache=basis.BasisCache())
        assert (code, out) == (0, report.render_text() + "\n")
        assert report.params["n_max"] == n_max

    def test_uplemma(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "uplemma", "--level", "12",
                             "--mmax", "6", "--zero-window", "20", "--no-cache-dir")
        assert code == 0

    @pytest.mark.parametrize("zero_window", ["0", "-5"])
    def test_uplemma_zero_window_below_one_is_usage_error(self, capsys, zero_window):
        code, out, err = run_cli(capsys, "verify", "uplemma", "--level", "18", "--mmax", "6",
                                 "--zero-window", zero_window, "--no-cache-dir")
        assert (code, out) == (2, "")
        assert err == f"error: zero window must be at least 1, not {zero_window}\n"

    def test_genfun(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "genfun", "--level", "10",
                             "--weight", "4", "--mmax", "4", "--no-cache-dir")
        assert code == 0

    @pytest.mark.parametrize("m_max", ["-1", "-3"])
    def test_vacuous_genfun_passes(self, capsys, m_max):
        # no element has a pole order at most m_max, so there is no column to check
        code, out, err = run_cli(capsys, "verify", "genfun", "--level", "6", "--weight", "0",
                                 "--mmax", m_max, "--format", "json", "--no-cache-dir")
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["passed"] and report["details"]["vacuous"]

    @pytest.mark.parametrize("argv", [["theta", "--level", "6", "--mmax", "0"],
                                      ["uplemma", "--level", "12", "--mmax", "-3"]],
                             ids=["theta", "uplemma"])
    def test_request_with_no_index_is_vacuous(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(basis._Family, "rows", refuse_rows)
        code, out, err = run_cli(capsys, "verify", *argv, "--format", "json", "--no-cache-dir")
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["passed"] and report["window"] == "empty"
        assert report["details"] == {"vacuous": True}

    def test_al(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "al", "--level", "6", "--p", "3",
                             "--rset", "1", "--amax", "1", "--no-cache-dir")
        assert code == 0

    def test_al_without_involution_data_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "al", "--level", "12", "--p", "2",
                               "--no-cache-dir")
        assert code == 2
        assert "no involution data" in err

    def test_insufficient_precision_exit_four(self, capsys):
        code, _, err = run_cli(capsys, "verify", "genfun", "--level", "6",
                               "--weight", "0", "--mmax", "40", "--zprec", "20",
                               "--no-cache-dir")
        assert code == 4
        assert "precision" in err


class TestScan:
    def test_small_scan(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--level", "6", "--p", "2",
                               "--amax", "2", "--bmax", "2", "--ncap", "40",
                               "--no-cache-dir")
        assert code == 0
        assert "congruence-scan: pass" in out

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--level", "6", "--p", "2",
                               "--amax", "1", "--bmax", "1", "--ncap", "20",
                               "--format", "csv", "--no-cache-dir")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,p,a,b,r,s,m,n,coeff,valuation,bound,status"
        assert all(line.startswith("6,2,") for line in lines[1:])

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "scan", "--level", "6", "--p", "2",
                             "--amax", "1", "--bmax", "1", "--ncap", "20",
                             "--report", str(path), "--no-cache-dir")
        assert code == 0
        assert path.read_text().startswith("N,p,a,b,r,s")

        jpath = tmp_path / "rows.json"
        code, _, _ = run_cli(capsys, "scan", "--level", "6", "--p", "2",
                             "--amax", "1", "--bmax", "1", "--ncap", "20",
                             "--report", str(jpath), "--no-cache-dir")
        doc = json.loads(jpath.read_text())
        assert doc["command"] == "scan" and doc["summary"]["failures"] == 0

    def test_report_into_missing_directory_refused_before_any_work(self, capsys, tmp_path):
        path = tmp_path / "nodir" / "rows.json"
        code, out, err = run_cli(capsys, "scan", "--level", "6", "--p", "2", "--ncap", "20",
                                 "--no-cache-dir", "--report", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_unwritable_report_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # the path is a directory, so no report can be written there: refused before any work
        monkeypatch.setattr(basis._Family, "rows", refuse_rows)
        for argv in (["scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1",
                      "--ncap", "20"], ["verify", "theta", "--level", "6", "--mmax", "2"]):
            code, out, err = run_cli(capsys, *argv, "--no-cache-dir", "--report", str(tmp_path))
            assert (code, out) == (2, "")
            assert err == f"error: cannot write report {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("bound", [["--ncap", "-1"], ["--amax", "-1"], ["--rset", ""],
                                       ["--bmax", "-1", "--ncap", "20"],
                                       ["--sset", "", "--ncap", "20"],
                                       ["--level", "10", "--p", "5", "--sset", ","]],
                             ids=["ncap", "amax", "rset-empty", "bmax", "sset-empty",
                                  "p5-sset-empty"])
    def test_vacuous_scan_passes(self, capsys, monkeypatch, bound):
        # no pole order or no dual index survives the bound, or an empty residue
        # set leaves no index, so no (m, n) pair is left: the scan is vacuous,
        # with no row, no failure, and no basis row built
        monkeypatch.setattr(basis._Family, "rows", refuse_rows)
        argv = ("scan", "--level", "6", "--p", "2", *bound, "--no-cache-dir")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == ("congruence-scan: pass\n  window: empty\n  precision: O(q^0)\n"
                       "  vacuous: True\n")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["rows"] == [] and doc["summary"]["failures"] == 0

    @pytest.mark.parametrize("bound", [["--amax", "-1"], ["--rset", ","], ["--rset", ""]],
                             ids=["amax", "rset", "rset-empty"])
    def test_vacuous_al_passes(self, capsys, bound):
        # the involution check with no pole order to read passes, as the scan does
        code, out, err = run_cli(capsys, "verify", "al", "--level", "6", "--p", "3", *bound,
                                 "--format", "json", "--no-cache-dir")
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["passed"] and report["window"] == "empty"
        assert report["details"] == {"vacuous": True}

    def test_bad_residue_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--level", "6", "--p", "2",
                             "--rset", "2", "--ncap", "20", "--no-cache-dir")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1", "--ncap", "10",
         "--sset=-1"],
        ["scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1", "--ncap", "10",
         "--rset=-1"],
        ["verify", "al", "--level", "6", "--p", "2", "--rset=-1"]],
        ids=["scan-sset", "scan-rset", "al-rset"])
    def test_negative_residue_usage_error(self, capsys, monkeypatch, argv):
        # residues are positive: -1 is refused by name before any basis row
        monkeypatch.setattr(basis._Family, "rows", refuse_rows)
        code, out, err = run_cli(capsys, *argv, "--no-cache-dir")
        assert (code, out) == (2, "")
        assert err == "error: residue -1 is not positive\n"

    @pytest.mark.parametrize("argv, once, twice", [
        (["scan", "--level", "6", "--p", "2", "--amax", "0", "--bmax", "0", "--ncap", "8"],
         ["--rset", "1", "--sset", "1"], ["--rset", "1,1", "--sset", "1,1"]),
        (["verify", "al", "--level", "6", "--p", "2"], ["--rset", "1"], ["--rset", "1,1"])],
        ids=["scan", "al"])
    def test_repeated_residue_counts_once(self, capsys, argv, once, twice):
        code, want, _ = run_cli(capsys, *argv, *once, "--no-cache-dir")
        assert code == 0
        assert run_cli(capsys, *argv, *twice, "--no-cache-dir") == (0, want, "")

    def test_require_weak_filters_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--level", "18", "--p", "2",
                               "--amax", "2", "--bmax", "2", "--ncap", "40",
                               "--require-weak", "--format", "csv", "--no-cache-dir")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert lines
        # only residues r with 3 not dividing r remain
        assert all(int(line.split(",")[4]) % 3 != 0 for line in lines)

    def test_require_weak_rejected_for_strong_only_pair(self, capsys, monkeypatch):
        # refused before any basis row, as is a pair with no congruence data,
        # vacuous or not
        monkeypatch.setattr(basis._Family, "rows", refuse_rows)
        for argv, message in (
                (["--p", "2", "--amax", "1", "--bmax", "1", "--ncap", "20", "--require-weak"],
                 "no weak congruence case for level 6, p = 2"),
                (["--p", "3", "--require-weak"], "no weak congruence case for level 6, p = 3"),
                (["--p", "5"], "no congruence data for level 6, p = 5"),
                (["--p", "5", "--ncap", "-1"], "no congruence data for level 6, p = 5"),
                (["--p", "0"], "no congruence data for level 6, p = 0"),
                (["--p", "1"], "no congruence data for level 6, p = 1"),
                (["--p", "4"], "no congruence data for level 6, p = 4")):
            code, out, err = run_cli(capsys, "scan", "--level", "6", *argv, "--no-cache-dir")
            assert (code, out, err) == (2, "", f"error: {message}\n")


class TestValidateAndCache:
    def test_validate(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--level", "18")
        assert code == 0
        assert "overall: pass" in out

    @pytest.mark.parametrize("prec", ["0", "-5"])
    def test_validate_nonpositive_prec_is_usage_error(self, capsys, prec):
        code, out, err = run_cli(capsys, "validate", "--level", "6", "--prec", prec)
        assert (code, out, err) == (2, "", "error: --prec must be positive\n")

    @pytest.mark.parametrize("n, prec, needed", [(6, "1", 3), (6, "2", 3), (10, "6", 7),
                                                 (18, "6", 7)])
    def test_validate_short_of_a_leading_term_is_a_precision_error(self, capsys, n, prec,
                                                                    needed):
        # O(q^prec) does not reach the weight form's leading term, which is no fixture fault
        code, out, err = run_cli(capsys, "validate", "--level", str(n), "--prec", prec)
        assert code == 4 and out == ""
        assert err.startswith("insufficient precision: ") and len(err.splitlines()) == 1
        assert f"(needs precision >= {needed})" in err
        code, _, _ = run_cli(capsys, "validate", "--level", str(n), "--prec", str(needed))
        assert code == 0

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _, _ = run_cli(capsys, "expand", "--level", "6", "--weight", "0",
                             "--m", "1", "--cache-dir", cache_dir)
        assert code == 0
        code, out, _ = run_cli(capsys, "cache", "info", "--cache-dir", cache_dir)
        assert code == 0 and "families: 1" in out
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir)
        assert code == 0 and "removed 1" in out

    @pytest.mark.parametrize("action", ["info", "clear"])
    def test_cache_dir_that_is_a_file_is_usage_error(self, capsys, tmp_path, action):
        path = tmp_path / "cache"
        path.write_text("not a cache")
        code, out, err = run_cli(capsys, "cache", action, "--cache-dir", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path.read_text() == "not a cache"

    def test_cache_ignores_files_it_did_not_write(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        os.mkdir(cache_dir)
        code, _, _ = run_cli(capsys, "scan", "--level", "6", "--p", "2", "--ncap", "20",
                             "--cache-dir", cache_dir, "--report",
                             os.path.join(cache_dir, "rows.json"))
        assert code == 0
        code, out, _ = run_cli(capsys, "cache", "info", "--cache-dir", cache_dir)
        assert code == 0 and "families: 1," in out and "rows.json" not in out
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir)
        assert code == 0 and "removed 1 " in out
        assert os.listdir(cache_dir) == ["rows.json"]

    def test_cache_skips_a_directory_named_like_a_family_file(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        (cache_dir / "basis_N6_k0_M.json").mkdir(parents=True)
        code, _, _ = run_cli(capsys, "expand", "--level", "6", "--weight", "2", "--m", "1",
                             "--cache-dir", str(cache_dir))
        assert code == 0
        code, out, _ = run_cli(capsys, "cache", "info", "--cache-dir", str(cache_dir))
        assert code == 0 and "families: 1," in out and "basis_N6_k0_M.json" not in out
        code, out, err = run_cli(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
        assert code == 0 and "removed 1 " in out and err == ""
        assert os.listdir(cache_dir) == ["basis_N6_k0_M.json"]

    def test_unwritable_family_does_not_stop_the_others(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        (cache_dir / "basis_N6_k0_M.json").mkdir(parents=True)
        argv = ["verify", "duality", "--level", "6", "--weight", "0", "--window", "15"]
        code, warm, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
        assert code == 0
        load, save = err.splitlines()
        assert load.startswith("warning: ignoring unreadable cache file")
        assert save.startswith("warning: basis cache not saved")
        assert sorted(os.listdir(cache_dir)) == ["basis_N6_k0_M.json", "basis_N6_k2_S.json"]
        code, cold, _ = run_cli(capsys, *argv, "--no-cache-dir")
        assert code == 0 and warm == cold

    @pytest.mark.parametrize("argv", [
        ["verify", "duality", "--level", "6", "--window", "4", "--no-cache-dir", "--format", "csv"],
        ["validate", "--level", "6", "--format", "csv"],
        ["cache", "info", "--format", "json"],
        ["cache", "info", "--report", "x.json"],
        ["verify", "duality", "--level", "6", "--window", "15", "--no-cache-dir",
         "--report", "r.csv"],
    ], ids=["verify-csv", "validate-csv", "cache-format", "cache-report", "verify-csv-report"])
    def test_unproducible_output_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert os.listdir(tmp_path) == []

    def test_warm_and_cold_outputs_identical(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["expand", "--level", "6", "--weight", "0", "--m", "2",
                "--terms", "5", "--format", "json", "--cache-dir", cache_dir]
        code, cold, _ = run_cli(capsys, *argv)
        assert code == 0
        code, warm, _ = run_cli(capsys, *argv)
        assert code == 0
        assert cold == warm

    def test_truncated_cache_file_is_recomputed(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["expand", "--level", "6", "--weight", "0", "--m", "2", "--terms", "5"]
        code, _, _ = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
        assert code == 0
        path = cache_dir / "basis_N6_k0_M.json"
        whole = path.read_bytes()
        path.write_bytes(whole[:200])
        code, warm, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
        assert code == 0
        assert err.startswith("warning: ignoring unreadable cache file") and err.count("\n") == 1
        code, cold, _ = run_cli(capsys, *argv, "--no-cache-dir")
        assert code == 0
        assert warm == cold
        assert path.read_bytes() == whole

    def test_edited_row_that_breaks_a_later_row_is_an_integrity_error(self, capsys, tmp_path):
        # the recurrence continues from stored row 10, so a coefficient edited
        # there leaves row 11 with a term inside its gap
        cache = basis.BasisCache(directory=str(tmp_path))
        cache.rows(6, 0, "M", range(0, 11), 30)
        [path] = cache.save()
        with open(path) as fh:
            doc = json.load(fh)
        row = doc["elements"]["10"]
        row["coeffs"][1 - row["valuation"]] = str(int(row["coeffs"][1 - row["valuation"]]) + 1)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run_cli(capsys, "verify", "duality", "--level", "6", "--weight", "0",
                                 "--window", "15", "--nwindow", "5", "--cache-dir", str(tmp_path))
        assert (code, out) == (3, "")
        assert err == ("data integrity error: P_11(psi) left q^0 uncancelled "
                       "for (level 6, weight 0, space M)\n")

    @pytest.mark.parametrize("n, exponent", [(6, -9), (6, 0), (18, -7), (18, -8)])
    def test_edited_gap_coefficient_is_an_integrity_error_once_a_later_row_uses_it(
            self, capsys, tmp_path, n, exponent):
        # no product reads a stored row's head, so packing row 10 for row 11
        # checks it; at level 18, q^-8 lies off the step-3 progression of q^-10
        cache = basis.BasisCache(directory=str(tmp_path))
        cache.rows(n, 0, "M", range(0, 11), 30)
        [path] = cache.save()
        with open(path) as fh:
            doc = json.load(fh)
        row = doc["elements"]["10"]
        row["coeffs"][exponent - row["valuation"]] = "1"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run_cli(capsys, "verify", "duality", "--level", str(n), "--weight", "0",
                                 "--window", "15", "--nwindow", "5", "--cache-dir", str(tmp_path))
        assert (code, out) == (3, "")
        assert err == (f"data integrity error: P_10(psi) left q^{exponent} uncancelled "
                       f"for (level {n}, weight 0, space M)\n")

    @pytest.mark.parametrize("coeff", ["3/2", 7])
    def test_non_integer_cache_coefficient_is_one_warning_and_recomputed(self, capsys, tmp_path,
                                                                          coeff):
        argv = ["expand", "--level", "6", "--weight", "0", "--m", "1", "--terms", "4"]
        assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path))[0] == 0
        path = tmp_path / "basis_N6_k0_M.json"
        doc = json.loads(path.read_text())
        doc["elements"]["1"]["coeffs"][2] = coeff
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, "q^-1 + 6q + 4q^2 - 3q^3\n")
        assert err.startswith("warning: ignoring unreadable cache file") and err.count("\n") == 1
        assert json.loads(path.read_text())["elements"]["1"]["coeffs"][2] == "6"

    @pytest.mark.parametrize("broken, argv, message", [
        ("shift", ["expand", "--weight", "0", "--m", "1"], "q^0 is 1/2"),
        ("shift", ["verify", "theta", "--mmax", "2"], "q^0 is 1/2"),
        ("form", ["expand", "--weight", "2", "--m", "1"], "q^2 is 1/2"),
        ("form", ["verify", "duality", "--weight", "2", "--window", "2"], "q^2 is 1/2"),
    ])
    def test_non_integral_fixture_is_an_integrity_error(self, capsys, monkeypatch, broken, argv,
                                                        message):
        # psi shifted by a half more, or the weight-2 form at half its scalar
        good = leveldata.get_level(6)
        forms = good.weight_forms
        if broken == "form":
            halved = EtaCombination([EtaQuotient(6, t.factors, t.scalar / 2)
                                     for t in forms[2].combination.terms])
            forms = {2: leveldata.WeightForm(2, 2, halved)}
        shift = good.hauptmodul_shift + (Fraction(1, 2) if broken == "shift" else 0)
        monkeypatch.setitem(leveldata._levels, 6, leveldata.LevelData(
            6, good.hauptmodul_quotient, shift, forms, good.cusp_poly, good.aux))
        code, out, err = run_cli(capsys, *argv, "--level", "6", "--no-cache-dir")
        assert (code, out) == (3, "")
        assert err == f"data integrity error: the coefficient of {message}, not an integer\n"
        code, out, err = run_cli(capsys, "validate", "--level", "6")
        assert (code, err) == (3, "") and "IntegralityViolation: the coefficient of" in out

    @pytest.mark.parametrize("name, family", [
        ("basis_N6_k2_M.json", ["--level", "6", "--weight", "2", "--m", "1"]),
        ("basis_N6_k0_S.json", ["--level", "6", "--weight", "0", "--space", "S", "--m", "3"]),
        ("basis_N10_k0_M.json", ["--level", "10", "--weight", "0", "--m", "1"]),
    ], ids=["weight", "space", "level"])
    def test_file_naming_another_family_is_a_warned_miss(self, capsys, tmp_path, name, family):
        cache_dir = tmp_path / "cache"
        code, _, _ = run_cli(capsys, "expand", "--level", "6", "--weight", "0", "--m", "1",
                             "--cache-dir", str(cache_dir))
        assert code == 0
        (cache_dir / name).write_bytes((cache_dir / "basis_N6_k0_M.json").read_bytes())
        argv = ["expand", *family, "--terms", "4"]
        code, warm, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
        assert code == 0
        assert err.startswith("warning: ignoring unreadable cache file") and err.count("\n") == 1
        code, cold, _ = run_cli(capsys, *argv, "--no-cache-dir")
        assert code == 0
        assert warm == cold

    def test_cache_path_that_cannot_be_opened_is_a_warned_miss(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        (cache_dir / "basis_N6_k0_M.json").mkdir(parents=True)
        argv = ["expand", "--level", "6", "--weight", "0", "--m", "1", "--terms", "4"]
        code, warm, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
        assert code == 0
        load, save = err.splitlines()
        assert load.startswith("warning: ignoring unreadable cache file")
        assert save.startswith("warning: basis cache not saved")
        code, cold, _ = run_cli(capsys, *argv, "--no-cache-dir")
        assert code == 0
        assert warm == cold
        assert os.listdir(cache_dir) == ["basis_N6_k0_M.json"]      # no *.tmp left behind

    def test_restored_family_serves_a_new_prime(self, capsys, tmp_path):
        # the p=2 scan reads families that two p=3 scans left on disk
        cache_dir = str(tmp_path / "cache")
        argv = ["scan", "--level", "18", "--ncap", "200", "--format", "csv"]
        for _ in range(2):
            code, _, _ = run_cli(capsys, *argv, "--p", "3", "--cache-dir", cache_dir)
            assert code == 0
        code, warm, _ = run_cli(capsys, *argv, "--p", "2", "--cache-dir", cache_dir)
        assert code == 0
        code, cold, _ = run_cli(capsys, *argv, "--p", "2", "--no-cache-dir")
        assert code == 0
        assert warm == cold

    @pytest.mark.parametrize("sset", [[], ["--ncap", "100", "--sset", "7,9,11"]],
                             ids=["default", "sset"])
    def test_rows_stored_shallow_are_read_again_for_another_prime(self, capsys, tmp_path, sset):
        # the p=3 scan leaves each row on disk only as deep as it read it; the
        # p=2 scan evaluates again any row it reads deeper: with s in 7, 9, 11
        # it reads rows 1, 2, 3, 4, 6 and 12 at q^88, not at q^m, from the same family
        cache_dir = str(tmp_path / "cache")
        argv = ["scan", "--level", "6", "--ncap", "150", "--format", "csv"]
        code, _, _ = run_cli(capsys, *argv, "--p", "3", "--cache-dir", cache_dir)
        assert code == 0
        code, warm, _ = run_cli(capsys, *argv, "--p", "2", *sset, "--cache-dir", cache_dir)
        assert code == 0
        code, cold, _ = run_cli(capsys, *argv, "--p", "2", *sset, "--no-cache-dir")
        assert code == 0
        assert warm == cold

    def test_restored_family_serves_a_shallower_request(self, capsys, tmp_path, monkeypatch):
        # the duality check leaves (6, 2, S) on disk deep in index; the expand
        # asks for one index at a higher precision, which the same reach serves
        cache_dir = str(tmp_path / "cache")
        code, _, _ = run_cli(capsys, "verify", "duality", "--level", "6", "--weight", "0",
                             "--window", "15", "--cache-dir", cache_dir)
        assert code == 0
        built = []

        class Recording(basis._Family):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(basis, "_Family", Recording)
        argv = ["expand", "--level", "6", "--weight", "2", "--space", "S",
                "--m", "1", "--terms", "4"]
        code, warm, _ = run_cli(capsys, *argv, "--cache-dir", cache_dir)
        assert code == 0
        [fam] = built
        assert not fam.dirty and 1 in fam.elements
        monkeypatch.undo()
        code, cold, _ = run_cli(capsys, *argv, "--no-cache-dir")
        assert code == 0
        assert warm == cold

    @pytest.mark.parametrize("check", [
        ["verify", "duality", "--level", "6", "--weight", "0", "--window", "15"],
        ["verify", "genfun", "--level", "6", "--mmax", "8"],
        pytest.param(["verify", "theta", "--level", "6", "--mmax", "10"], marks=pytest.mark.xfail(
            strict=True, reason="theta_check counts coefficients up to the precision that "
            "the cached elements happen to carry")),
    ], ids=["duality", "genfun", "theta"])
    def test_report_independent_of_cache_history(self, capsys, tmp_path, check):
        cache_dir = str(tmp_path / "cache")
        code, cold, _ = run_cli(capsys, *check, "--no-cache-dir")
        assert code == 0
        for space in (["--weight", "0"], ["--weight", "2", "--space", "S"]):
            code, _, _ = run_cli(capsys, "expand", "--level", "6", *space, "--m", "12",
                                 "--prec", "120", "--cache-dir", cache_dir)
            assert code == 0
        code, warm, _ = run_cli(capsys, *check, "--cache-dir", cache_dir)
        assert code == 0
        assert warm == cold


def test_no_module_raises_runtime_error():
    # a failure is an EtaformsError or a usage error, so main maps it to an exit code
    src = os.path.dirname(etaforms.__file__)
    raised = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                        raised.append(f"{name}:{node.lineno}")
    assert raised == []


STARTUP_PROBE = """
import json, sys
import etaforms.cli
def loaded():
    return [m for m in ("dataclasses", "typing", "inspect", "importlib.resources",
                        "etaforms.verify") if m in sys.modules]
states = [loaded()]
etaforms.cli.main(["expand", "--level", "6", "--weight", "0", "--m", "1", "--no-cache-dir"])
states.append(loaded())
etaforms.cli.main(["scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1",
                   "--ncap", "20", "--no-cache-dir"])
states.append(loaded())
print(json.dumps(states))
"""


def test_startup_loads_checks_only_on_demand():
    # -S: no site packages, so nothing but etaforms can import dataclasses
    src = os.path.dirname(os.path.dirname(etaforms.__file__))
    result = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    at_import, after_expand, after_scan = json.loads(result.stdout.splitlines()[-1])
    assert at_import == [] and after_expand == []
    assert "etaforms.verify" in after_scan


PUBLIC_NAMES = ["BasisCache", "BasisElement", "EtaCombination", "EtaQuotient", "QSeries",
                "a_coeff", "b_coeff", "euler_product", "f_basis", "first_element", "g_basis",
                "get_level", "ligozat_order", "parse_eta_quotient", "theta", "u_p",
                "validate_level"]

LAZY_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("etaforms."))
import etaforms
out = {"import": loaded()}
from etaforms.leveldata import get_level
for n in (6, 10, 12, 18):
    get_level(n)
out["fixtures"] = loaded()
import etaforms.cli
etaforms.cli.main(["expand", "--level", "6", "--weight", "0", "--m", "1", "--no-cache-dir"])
etaforms.cli.main(["scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1",
                   "--ncap", "20", "--no-cache-dir"])
out["commands"] = loaded()
star = {}
exec("from etaforms import *", star)
out["star"] = sorted(name for name in star if name != "__builtins__")
out["dir"] = dir(etaforms)
out["owners"] = {name: getattr(etaforms, name).__module__ for name in etaforms.__all__}
out["cached"] = all(name in vars(etaforms) for name in etaforms.__all__)
from etaforms import basis
out["basis"] = basis.BasisCache is etaforms.BasisCache and basis.f_basis(6, 0, 1).index == 1
try:
    etaforms.no_such_name
except AttributeError as err:
    out["unknown"] = str(err)
print(json.dumps(out))
"""


def test_public_names_load_their_submodule_on_first_access():
    # -S: no site packages, so only etaforms can import an etaforms module
    src = os.path.dirname(os.path.dirname(etaforms.__file__))
    result = subprocess.run([sys.executable, "-S", "-c", LAZY_PROBE],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["import"] == []
    assert out["fixtures"] == ["etaforms.errors", "etaforms.eta", "etaforms.leveldata",
                               "etaforms.series"]
    assert "etaforms.verify" in out["commands"] and "etaforms.validate" not in out["commands"]
    assert out["star"] == PUBLIC_NAMES == sorted(out["owners"])
    assert set(PUBLIC_NAMES) <= set(out["dir"]) and out["cached"]
    assert out["owners"]["validate_level"] == "etaforms.validate"
    assert out["owners"]["get_level"] == "etaforms.leveldata"
    assert out["basis"] is True
    assert out["unknown"] == "module 'etaforms' has no attribute 'no_such_name'"


def test_console_entry_point():
    # the child imports etaforms from where this process found it
    src = os.path.dirname(os.path.dirname(etaforms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "etaforms.cli", "expand", "--level", "6",
         "--weight", "0", "--m", "1", "--terms", "4", "--no-cache-dir"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert result.stdout.strip() == "q^-1 + 6q + 4q^2 - 3q^3"


@pytest.mark.parametrize("argv, code", [
    (["validate", "--level", "6", "--prec", "20"], 0),
    (["verify", "theta", "--level", "6", "--mmax", "3", "--format", "json", "--no-cache-dir"], 0),
    (["cache", "info", "--no-cache-dir"], 0),
    (["validate", "--level", "6", "--prec", "2"], 4),
], ids=["validate", "verify-json", "cache-info", "precision-error"])
def test_closed_stdout_ends_quietly(argv, code):
    # the reader is gone before the command writes, as when ``| head`` has exited
    src = os.path.dirname(os.path.dirname(etaforms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "etaforms", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, timeout=120,
                                env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write_end)
    assert result.returncode == code
    assert "Traceback" not in result.stderr and "BrokenPipe" not in result.stderr
    assert result.stderr == "" or code == 4
