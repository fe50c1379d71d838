"""Command-line interface tests: golden outputs, config handling, formats,
and exit codes."""

import hashlib
import json
import os
import re
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osczeta import cli, sumrules, verify
from osczeta.sympoly import ZKind

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

# SHA-256 of `osczeta derive --N <N> --nmax 16` stdout, in text and JSON,
# recorded with the derivation that carried D+(l)D-(wl) and D+(wl)D-(l) as
# two separate series
with open(os.path.join(os.path.dirname(__file__), "data",
                       "derive_digest_nmax16.json"), encoding="utf-8") as _fh:
    DERIVE_DIGESTS = json.load(_fh)

# `osczeta verify --format json` stdout for small N=1 and N=2 runs, recorded
# with mpmath's lerchphi on the alternating routes that the alternating
# Hurwitz kernel replaces
with open(os.path.join(os.path.dirname(__file__), "data",
                       "verify_snapshot.json"), encoding="utf-8") as _fh:
    VERIFY_SNAPSHOT = json.load(_fh)

# `osczeta verify --format json` stdout at the default configuration
with open(os.path.join(os.path.dirname(__file__), "data",
                       "verify_cli_default.json"), encoding="utf-8") as _fh:
    VERIFY_CLI_DEFAULT = _fh.read()


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

    def test_airy_hundred_levels_byte_identical(self, capsys):
        # the first 100 zeros of Ai and Ai' at 45 digits, as recorded with
        # the half-radian march and a kernel step per Newton iterate
        assert run(["spectrum", "--N", "1", "--count", "100", "--digits", "45",
                    "--format", "json"]) == 0
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "spectrum_cli_airy.json"),
                  encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.parametrize("parity", ["+", "-"])
    def test_airy_single_parity_byte_identical(self, parity, capsys):
        # one parity alone prints its record of the pinned pair, byte for
        # byte
        assert run(["spectrum", "--N", "1", "--parity", parity, "--count",
                    "100", "--digits", "45", "--format", "json"]) == 0
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "spectrum_cli_airy.json"),
                  encoding="utf-8") as fh:
            record, = [r for r in json.load(fh) if r["parity"] == parity]
        assert capsys.readouterr().out == json.dumps([record], indent=2) + "\n"

    def test_shooting_levels_at_fifty_digits_byte_identical(self, capsys):
        # 6 levels per parity of N = 2,3,4,6,10 asked for at 50 digits, as
        # recorded before the inward steps were summed to their action; the
        # CLI solves N >= 2 at SPECTRAL_DPS_CAP = 30 digits of those 50
        assert run(["spectrum", "--N", "2,3,4,6,10", "--count", "6",
                    "--digits", "50", "--format", "json"]) == 0
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "spectrum_cli_50.json"),
                  encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

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


class TestDeriveDigests:
    """The derive text and JSON at nmax 16 are fixed byte for byte, for
    every degree 1..10."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("N", sorted(DERIVE_DIGESTS["text"], key=int))
    def test_stdout_digest(self, N, fmt, capsys):
        assert run(["derive", "--N", N, "--nmax", str(DERIVE_DIGESTS["nmax"]),
                    "--format", fmt]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == DERIVE_DIGESTS[fmt][N]


class TestVerifySnapshot:
    """The verify JSON is fixed byte for byte."""

    @pytest.mark.parametrize("case", VERIFY_SNAPSHOT["verify"],
                             ids=lambda c: f"N{c['argv'][2]}-d{c['argv'][4]}")
    def test_cli_json_is_byte_identical(self, case, capsys):
        assert run(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]

    def test_default_battery_is_byte_identical(self, battery):
        # the session battery is what `osczeta verify` runs by default
        assert battery.to_json() + "\n" == VERIFY_CLI_DEFAULT


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

    def test_one_full_pass_per_degree(self, monkeypatch, capsys):
        # all restatements of a degree come from one full pass, up to the
        # largest multiple of L <= nmax, and none runs when nmax < L
        passes = []
        original = sumrules._derive

        def counting(N, n_max, basis):
            passes.append((N, n_max, basis))
            return original(N, n_max, basis)

        monkeypatch.setattr(sumrules, "_derive", counting)
        assert run(["derive", "--N", "1,2,3,6", "--nmax", "9"]) == 0
        assert run(["derive", "--N", "3", "--nmax", "4"]) == 0
        assert "full-value basis" in capsys.readouterr().out
        assert [(N, n) for N, n, basis in passes
                if basis is ZKind.ZFULL] == [(1, 9), (2, 8), (3, 5), (6, 8)]

    @pytest.mark.parametrize("argv", [["--N", "100000", "--nmax", "3"],
                                      ["--N", "3", "--nmax", "200"]])
    def test_huge_derivation_fails_fast(self, argv, capsys):
        start = time.monotonic()
        assert run(["derive", *argv]) == 2
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DerivationTooLargeError" in captured.err

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

    def test_unknown_config_key(self, tmp_path, capsys):
        # a misspelled key must not run at the default digits
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("N = 2\ndigitz = 12\n")
        assert run(["spectrum", "--N", "3", "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert "--digitz" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command, fmt", [
        ("table", "json"), ("table", "csv"), ("derive", "csv"),
        ("verify", "csv")])
    def test_unwritable_format_rejected(self, command, fmt, tmp_path,
                                        capsys):
        # from a flag or from a config file: exit 2 before any work, and
        # the message names the command and the format
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"N = 2\nformat = {fmt}\n")
        for argv in ([command, "--N", "2", "--format", fmt],
                     [command, "--config", str(cfgfile)]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"osczeta {command}: error: argument --format: "
                    f"invalid choice: '{fmt}'") in captured.err

    @pytest.mark.parametrize("command, key, value", [
        ("spectrum", "nmax", "2"), ("zeta", "parity", "+"),
        ("derive", "parity", "+"), ("derive", "count", "3"),
        ("derive", "digits", "20"), ("verify", "parity", "+"),
        ("verify", "nmax", "2"), ("table", "parity", "+"),
        ("table", "count", "3")])
    def test_unread_setting_rejected(self, command, key, value, tmp_path,
                                     capsys):
        # a setting the command never reads, from a flag or from a config
        # file: exit 2 before any work, and the message names it
        assert run([command, "--N", "2", f"--{key}", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--{key}" in captured.err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"N = 2\n{key} = {value}\n")
        assert run([command, "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--{key}" in captured.err

    def test_missing_config_file(self, capsys):
        assert run(["spectrum", "--config", "/nonexistent/path.cfg"]) == 2

    def test_invalid_values_rejected(self):
        assert run(["spectrum", "--N", "0"]) == 2
        assert run(["spectrum", "--digits", "3"]) == 2
        assert run(["zeta", "--N", "2", "--nmax", "-1"]) == 2

    @pytest.mark.parametrize("N", [64, 100, 200])
    def test_steep_potential_fails_fast(self, N, capsys):
        # the steps are too long for q^N: the Taylor kernel runs out of
        # terms, and the run ends with a typed error instead of a number
        start = time.monotonic()
        assert run(["spectrum", "--N", str(N), "--count", "1",
                    "--digits", "15"]) == 2
        assert time.monotonic() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PrecisionUnreachableError" in captured.err

    def test_out_file(self, tmp_path):
        target = tmp_path / "spec.csv"
        assert run(["spectrum", "--N", "2", "--count", "2", "--digits", "15",
                    "--format", "csv", "--out", str(target)]) == 0
        assert target.read_text().startswith("N,parity,k,")

    @pytest.mark.parametrize("argv", [
        ["table", "--N", "2", "--nmax", "2"],
        ["verify", "--N", "2", "--digits", "6", "--count", "5"]])
    def test_unwritable_out_exits_two(self, argv, tmp_path, capsys):
        # a directory, and a file in a missing directory: a typed error
        # and exit 2, which is not a verification failure
        for out, exc in ((tmp_path, "IsADirectoryError"),
                         (tmp_path / "missing" / "x.txt",
                          "FileNotFoundError")):
            assert run([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {exc}: ")

    @given(text=st.lists(st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",))),
        st.builds("{} = {}".format,
                  st.sampled_from([*cli.SETTINGS, "format", "out"]),
                  st.text(st.characters(blacklist_categories=("Cs",)))))
    ).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_any_config_text_is_valid_or_rejected(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                args = cli.parse_args(["zeta", "--config", path])
            except SystemExit as exc:
                assert exc.code == 2
                return
        assert all(N >= 1 for N in args.N)
        assert args.count >= 1 and args.nmax >= 0
        assert 5 <= args.digits <= 1000
        assert args.format in cli.COMMANDS["zeta"][2]


class TestMainReturns:
    """`cli.main` returns an exit code for any input and never raises: 2
    with nothing on stdout for bad input, naming the flag or key, and 0
    for --help.  The commands are stubbed, so nothing is computed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name, (helptext, _, formats, reads) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, name, (
                helptext, lambda args: calls.append(args) or 0, formats,
                reads))
        return calls

    # argv, the config file's text (None: no file), and what stderr names
    BAD_INPUT = {
        "unknown-flag": (["spectrum", "--digitz", "20"], None, "--digitz"),
        "unread-flag": (["derive", "--N", "2", "--digits", "20"], None,
                        "--digits"),
        "prefix-flag": (["table", "--N", "2", "--nm", "1"], None, "--nm"),
        "N-below-1": (["spectrum", "--N", "2,0"], None, "--N"),
        "parity-unknown": (["spectrum", "--parity", "++"], None, "--parity"),
        "count-below-1": (["spectrum", "--count", "0"], None, "--count"),
        "digits-below-5": (["spectrum", "--digits", "4"], None, "--digits"),
        "digits-above-1000": (["spectrum", "--digits", "1001"], None,
                              "--digits"),
        "nmax-below-0": (["zeta", "--nmax", "-1"], None, "--nmax"),
        "unwritable-format": (["table", "--format", "csv"], None, "--format"),
        "missing-config": (["spectrum", "--config", "missing.cfg"], None,
                           "--config"),
        "bad-config-line": (["spectrum"], "N = 2\nnot a key-value pair\n",
                            "--config"),
        "unknown-key": (["spectrum"], "N = 2\ndigitz = 20\n", "--digitz"),
        "prefix-key": (["table"], "N = 2\nnm = 1\n", "--nm"),
        # the file names itself, so only the key is at fault
        "config-key": (["spectrum"], "config = run.cfg\n", "--config"),
    }

    @pytest.mark.parametrize("case", BAD_INPUT)
    def test_bad_input_returns_two(self, case, calls, tmp_path, monkeypatch,
                                   capsys):
        argv, config, names = self.BAD_INPUT[case]
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and names in captured.err
        assert calls == []

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]],
                             ids=["osczeta", "verify"])
    def test_help_returns_zero(self, argv, calls, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: osczeta")
        assert calls == []


class TestZetaCommand:
    def test_harmonic_values(self, capsys):
        assert run(["zeta", "--N", "2", "--count", "8", "--digits", "15",
                    "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        # ZP(1) = pi/4 and Z(2) = pi^2/8 from the spectrum alone
        assert "0.785398" in out
        assert "1.2337" in out

    def test_text_digits_are_certified(self, capsys):
        # no text value shows more significant digits than its label
        assert run(["zeta", "--N", "1,3", "--count", "2", "--digits", "30",
                    "--nmax", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            value, label = re.fullmatch(
                r"N=\d+ \w+ +n=\d+  (\S+) +\[(\d+) digits\]", line).groups()
            mantissa = value.lstrip("-").split("e")[0].replace(".", "")
            assert len(mantissa.strip("0")) <= int(label), line

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
        from osczeta.verify import CheckRecord, VerificationReport
        record = CheckRecord(
            check_id="stub.check", anchor="stub", symbolic="1", numeric="1",
            residual="0.0", digits_agreed=50, tolerance="1.0e-10",
            passed=passed)
        return VerificationReport(records=(record,), digits=50,
                                  eigencount=12, n_list=(2,))

    def test_exit_zero_on_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_battery",
                            lambda **kw: self.fake_report(True))
        assert run(["verify", "--N", "2"]) == 0
        assert "stub.check" in capsys.readouterr().out

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_battery",
                            lambda **kw: self.fake_report(False))
        assert run(["verify", "--N", "2"]) == 1
