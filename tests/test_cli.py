"""Command-line interface tests: golden outputs, config handling, formats,
and exit codes."""

import dataclasses
import json
import os

import pytest

from osczeta import cli, sumrules, verify

# `osczeta derive --N <N> --nmax 9` stdout per degree, recorded with the
# earlier Z+/Z- series-product derivation
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "derive_snapshot.json")
with open(SNAPSHOT_PATH, encoding="utf-8") as _fh:
    DERIVE_SNAPSHOT = json.load(_fh)

# the same at nmax 12, recorded with the derivation that expanded both
# exponentials in full before substituting the earlier Z(m) eliminations
with open(os.path.join(os.path.dirname(__file__), "data",
                       "derive_snapshot_nmax12.json"), encoding="utf-8") as _fh:
    DEEP_DERIVE_SNAPSHOT = json.load(_fh)

# `osczeta verify --format json` stdout for small N=1 and N=2 runs, and the
# default battery's JSON, recorded with mpmath's lerchphi on the alternating
# routes that the alternating Hurwitz kernel replaces
with open(os.path.join(os.path.dirname(__file__), "data",
                       "verify_snapshot.json"), encoding="utf-8") as _fh:
    VERIFY_SNAPSHOT = json.load(_fh)


def run(argv):
    return cli.main(argv)


class TestSpectrumCommand:
    def test_harmonic_golden(self, capsys):
        assert run(["spectrum", "--N", "2", "--count", "5",
                    "--parity", "both", "--digits", "15"]) == 0
        out = capsys.readouterr().out
        assert "N=2 parity=+" in out and "N=2 parity=-" in out
        for val in ("1.0", "3.0", "5.0", "7.0", "9.0"):
            assert val in out

    def test_airy_golden(self, capsys):
        assert run(["spectrum", "--N", "1", "--parity", "-",
                    "--count", "3", "--digits", "20"]) == 0
        out = capsys.readouterr().out
        assert "2.33810741" in out
        assert "4.08794944" in out
        assert "5.52055982" in out

    def test_csv_format(self, capsys):
        assert run(["spectrum", "--N", "2", "--count", "3",
                    "--digits", "15", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,parity,k,eigenvalue,certified_digits"
        assert len(lines) == 1 + 6  # both parities

    def test_json_format_parses(self, capsys):
        assert run(["spectrum", "--N", "2", "--count", "3",
                    "--digits", "15", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["parity"] for d in docs] == ["+", "-"]


class TestDeriveCommand:
    def test_sextic_order2_identity(self, capsys):
        assert run(["derive", "--N", "6", "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "1*ZP(2) = (1*z16^2 + -1*z16^6)*ZP(1)^2" in out

    def test_harmonic_degenerate_order1(self, capsys):
        assert run(["derive", "--N", "2", "--nmax", "1"]) == 0
        assert "degenerate" in capsys.readouterr().out

    def test_cubic_order5_coefficients(self, capsys):
        assert run(["derive", "--N", "3", "--nmax", "5"]) == 0
        out = capsys.readouterr().out
        # the autonomous full-value restatement carries the surd coefficients
        # (written on the cyclotomic power basis of conductor 10)
        assert "full-value basis" in out
        assert "165095/24" in out and "Z(1)^5" in out

    def test_json_round_trip_deterministic(self, capsys):
        assert run(["derive", "--N", "3,6", "--nmax", "4",
                    "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert run(["derive", "--N", "3,6", "--nmax", "4",
                    "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        docs = json.loads(first)
        assert len(docs) == 2
        # N=6 has symmetry order 4, so order 4 gains a full-basis restatement
        autonomous = [d for d in docs[1] if d.get("autonomous")]
        assert autonomous and autonomous[0]["classification"] == "Zfull"


class TestDeriveSnapshot:
    """The derive text is fixed byte for byte, for every degree 1..10."""

    @pytest.mark.parametrize("N", sorted(DERIVE_SNAPSHOT["text"], key=int))
    def test_text_is_byte_identical(self, N, capsys):
        nmax = str(DERIVE_SNAPSHOT["nmax"])
        assert run(["derive", "--N", N, "--nmax", nmax]) == 0
        assert capsys.readouterr().out == DERIVE_SNAPSHOT["text"][N]


class TestDeepDeriveSnapshot:
    """The derive text at nmax 12 is fixed byte for byte, for every degree
    1..10."""

    @pytest.mark.parametrize("N", sorted(DEEP_DERIVE_SNAPSHOT["text"], key=int))
    def test_text_is_byte_identical(self, N, capsys):
        nmax = str(DEEP_DERIVE_SNAPSHOT["nmax"])
        assert run(["derive", "--N", N, "--nmax", nmax]) == 0
        assert capsys.readouterr().out == DEEP_DERIVE_SNAPSHOT["text"][N]


class TestVerifySnapshot:
    """The verify JSON is fixed byte for byte."""

    @pytest.mark.parametrize("case", VERIFY_SNAPSHOT["verify"],
                             ids=lambda c: f"N{c['argv'][2]}-d{c['argv'][4]}")
    def test_cli_json_is_byte_identical(self, case, capsys):
        assert run(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]

    def test_default_battery_is_byte_identical(self, battery):
        assert battery.to_json() == VERIFY_SNAPSHOT["battery"]


class TestDeriveWork:
    def test_one_derivation_per_degree(self, monkeypatch, capsys):
        calls = []
        original = sumrules.derive_sum_rules

        def counting(N, n_max):
            calls.append((N, n_max))
            return original(N, n_max)

        # the CLI and the elimination each bind their own name
        monkeypatch.setattr(cli, "derive_sum_rules", counting)
        monkeypatch.setattr(sumrules, "derive_sum_rules", counting)
        assert run(["derive", "--N", "1,3,6", "--nmax", "9"]) == 0
        assert "full-value basis" in capsys.readouterr().out
        assert calls == [(1, 9), (3, 9), (6, 9)]

    @pytest.mark.parametrize("nmax", [2, 4])
    def test_harmonic_restatements_are_skipped(self, nmax, capsys):
        # N=2 restatements keep ZP(1) = pi/4, which nothing eliminates
        assert run(["derive", "--N", "2", "--nmax", str(nmax)]) == 0
        out = capsys.readouterr().out
        assert f"N=2 n={nmax}: 1*Z({nmax}) = " in out
        assert "full-value basis" not in out
        assert run(["derive", "--N", "2,4", "--nmax", str(nmax),
                    "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert not any(d.get("autonomous") for d in docs[0])
        assert len(docs[0]) == nmax + 1


class TestVerifyWork:
    def test_one_airy_solve_per_parity(self, monkeypatch, capsys):
        # the Airy checks and the zeta table share one 30-level pair; the
        # table takes its --count prefix
        calls = []
        original = verify.eigenvalues

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verify, "eigenvalues", counting)
        assert run(["verify", "--N", "1", "--digits", "20", "--count", "5",
                    "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert calls == [(1, "+", 30, 20), (1, "-", 30, 20)]

    def test_supplied_deep_pair_is_not_solved_again(self, monkeypatch,
                                                    spectra1):
        def refuse(*args):
            raise AssertionError(f"unexpected solve {args}")

        monkeypatch.setattr(verify, "eigenvalues", refuse)
        report = verify.run_battery(n_list=(1,), digits=20, eigencount=5,
                                    spectra={1: spectra1})
        assert report.passed


class TestTableCommand:
    def test_classification_cells(self, capsys):
        assert run(["table", "--N", "3,6", "--nmax", "3",
                    "--digits", "20"]) == 0
        out = capsys.readouterr().out
        assert "Z_3^+(2)" in out
        assert "Z_3^-(3): no closed form" in out
        assert "Z_6^P(2) = 0.7189522956" in out

    def test_harmonic_column_fully_closed(self, capsys):
        assert run(["table", "--N", "2", "--nmax", "4",
                    "--digits", "20"]) == 0
        out = capsys.readouterr().out
        assert "no closed form" not in out
        assert "Z_2^P(1) = 0.785398163" in out  # pi/4


class TestConfigHandling:
    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("N = 2\ncount = 3  # small run\ndigits = 15\n")
        assert run(["spectrum", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert "N=2" in out and "k=  4" in out

    def test_flags_override_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("N = 2\ncount = 9\ndigits = 15\n")
        assert run(["spectrum", "--config", str(cfgfile),
                    "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "k=  2" in out and "k=  8" not in out

    def test_bad_config_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("this is not a key-value pair\n")
        assert run(["spectrum", "--config", str(cfgfile)]) == 2

    def test_missing_config_file(self, capsys):
        assert run(["spectrum", "--config", "/nonexistent/path.cfg"]) == 2

    def test_invalid_values_rejected(self):
        assert run(["spectrum", "--N", "0"]) == 2
        assert run(["spectrum", "--digits", "3"]) == 2
        assert run(["zeta", "--N", "2", "--nmax", "-1"]) == 2

    def test_out_file(self, tmp_path):
        target = tmp_path / "spec.csv"
        assert run(["spectrum", "--N", "2", "--count", "2", "--digits", "15",
                    "--format", "csv", "--out", str(target)]) == 0
        assert target.read_text().startswith("N,parity,k,")


class TestZetaCommand:
    def test_harmonic_values(self, capsys):
        assert run(["zeta", "--N", "2", "--count", "8", "--digits", "15",
                    "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        # ZP(1) = pi/4 and Z(2) = pi^2/8 from the spectrum alone
        assert "0.785398" in out
        assert "1.2337" in out

    def test_csv_rows(self, capsys):
        assert run(["zeta", "--N", "2", "--count", "4", "--digits", "12",
                    "--nmax", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,kind,order,value,method,certified_digits"
        # twisted at n = 1, then all four kinds at n = 2
        assert [ln.split(",")[1:3] for ln in lines[1:]] == [
            ["twisted", "1.0"], ["full", "2.0"], ["twisted", "2.0"],
            ["plus", "2.0"], ["minus", "2.0"]]
        assert lines[1].startswith("2,twisted,1.0,0.785398163397,")


class TestVerifyCommand:
    @staticmethod
    def fake_report(passed):
        rec = dataclasses.replace  # unused; keep import local and simple
        from osczeta.verify import CheckRecord, VerificationReport
        record = CheckRecord(
            check_id="stub.check", anchor="stub", symbolic="1", numeric="1",
            residual="0.0", digits_agreed=50, tolerance="1.0e-10",
            passed=passed)
        return VerificationReport(records=(record,), digits=50,
                                  eigencount=12, n_list=(2,), timings={})

    def test_exit_zero_on_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_battery",
                            lambda **kw: self.fake_report(True))
        assert run(["verify", "--N", "2"]) == 0
        assert "stub.check" in capsys.readouterr().out

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_battery",
                            lambda **kw: self.fake_report(False))
        assert run(["verify", "--N", "2"]) == 1
