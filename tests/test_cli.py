"""Command-line interface: flags, exit codes, JSON reports, TSV export."""

import hashlib
import json

import pytest

from thetakit.cli import (
    EXIT_OK,
    EXIT_UNKNOWN_ID,
    EXIT_VERIFY_FAIL,
    EXIT_USAGE,
    format_complex,
    main,
    parse_complex,
)
from thetakit.identities import builtin_catalog


def out_complex(text):
    """Read printed output values, which may use scientific notation."""
    return complex(text.strip()[:-1] + "j")


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-2.5", -2.5 + 0j),
            ("1i", 1j),
            ("-1i", -1j),
            ("0.3+0.9i", 0.3 + 0.9j),
            ("-0.3-0.9i", -0.3 - 0.9j),
            ("−1i", -1j),
            ("1e3", 1000 + 0j),
            ("1e-3i", 1e-3j),
            ("2.5E+2-1e-05i", 250 - 1e-5j),
        ],
    )
    def test_accepted(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize(
        "text", ["", "i", "1+i", "1x", "0.3+0.9j", "1+2", "1e", "e3", "1e+"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_round_trip_through_formatter(self):
        for z in (0.25 - 1.75j, 3 + 0j, -0.5j, 0.3 + 1e-5j, 1e300 - 2.5e-300j, 1e17 + 0j):
            assert parse_complex(format_complex(z)) == z


class TestEval:
    def test_odd_theta_at_zero(self, capsys):
        assert main(["eval", "--r", "1", "--u", "0", "--tau", "1i"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert abs(out_complex(out)) < 1e-12

    def test_spot_value(self, capsys):
        assert main(["eval", "--r", "3", "--u", "0", "--tau", "1i"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert abs(parse_complex(out) - 1.0864348112133082) < 1e-12

    def test_lower_half_plane_rejected(self, capsys):
        code = main(["eval", "--r", "3", "--u", "0", "--tau=-1i"])
        assert code == EXIT_USAGE
        assert "--tau" in capsys.readouterr().err

    def test_unicode_minus_tau_rejected_for_sign(self, capsys):
        # the literal parses (unicode minus is accepted) but violates Im > 0
        code = main(["eval", "--r", "3", "--u", "0", "--tau", "−1i"])
        assert code == EXIT_USAGE
        assert "--tau" in capsys.readouterr().err

    def test_malformed_complex_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--r", "3", "--u", "0", "--tau", "nope"])
        assert err.value.code == EXIT_USAGE
        assert "--tau" in capsys.readouterr().err

    def test_characteristics_path(self, capsys):
        assert main(["eval", "--char", "0,0", "--u", "0", "--tau", "1i"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert abs(parse_complex(out) - 1.0864348112133082) < 1e-12

    def test_product_comparison(self, capsys):
        assert main(["eval", "--r", "2", "--u", "0.25", "--tau", "1i", "--product", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["difference"] < 1e-11
        assert out_complex(payload["series"]) == pytest.approx(
            out_complex(payload["product"]), rel=1e-10
        )

    def test_product_comparison_plain_text(self, capsys):
        assert main(["eval", "--r", "2", "--u", "0.25", "--tau", "1i", "--product"]) == EXIT_OK
        value, product, difference = capsys.readouterr().out.splitlines()
        assert product.startswith("product    ")
        assert difference.startswith("difference ")
        assert out_complex(product.split()[1]) == pytest.approx(out_complex(value), rel=1e-10)
        assert float(difference.split()[1]) < 1e-11

    def test_characteristic_at_tiny_im_tau_reduces_first(self, capsys):
        # a direct sum exhausted 10 terms here; the reduced theta_3 needs a handful
        argv = ["--u", "0.3", "--tau", "0.0001i"]
        assert main(["eval", "--char", "0,0", *argv]) == EXIT_OK
        char_out = capsys.readouterr().out
        assert main(["eval", "--r", "3", *argv]) == EXIT_OK
        assert char_out == capsys.readouterr().out

    def test_product_with_large_reduced_im_u(self, capsys):
        # the reduced point is u' = -300i at Im tau' = 1000, where sin(pi*u') overflows
        code = main(["eval", "--r", "1", "--u", "0.3+0.1i", "--tau", "0.001i", "--product", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert out_complex(payload["product"]) == pytest.approx(
            out_complex(payload["series"]), rel=1e-12
        )

    def test_three_characteristics_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--char", "1,2,3", "--tau", "1i"])
        assert err.value.code == EXIT_USAGE
        assert "--char" in capsys.readouterr().err

    def test_settings_flags_are_gone(self, capsys):
        # reduced values sum the proven fixed window: no tol or cap to set
        for flag in (["--tol", "1e-9"], ["--max-terms", "10"]):
            with pytest.raises(SystemExit) as err:
                main(["eval", "--r", "3", "--tau", "1i", *flag])
            assert err.value.code == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "--r", "3", "--tau", "1i", "--u", "1e300i"], "lattice shift"),
            (["eval", "--r", "1", "--tau", "1i", "--u", "1e400"], "is not finite"),
            (["eval", "--char", "0.5,0", "--tau", "1i", "--u", "1e300i"], "lattice shift"),
            (["eval", "--char", "0.5,0", "--tau", "1i", "--u", "1e400"], "is not finite"),
            (["reduce", "--tau", "1i", "--u", "1e300i"], "--u: cannot reduce u"),
            (
                ["eval", "--r", "2", "--big-theta", "--tau", "22.999418910856136+0.004212647321610028i",
                 "--u", "5.355817839603837+19.73583697814024i"],
                "lattice shift",
            ),
            (
                ["eval", "--r", "4", "--big-theta", "--tau=-17.005073413886386+0.009722411305512765i",
                 "--u=-2.094570990978461+19.25462299557679i"],
                "outside the cell",
            ),
            (
                ["eval", "--r", "4", "--big-theta", "--tau", "31.66660672356315+0.0001367634137849261i",
                 "--u", "10.021257931131927+6.247743642203368i"],
                "K = (pi/2)*theta_3(0)^2 under- or overflows doubles",
            ),
            (["eval", "--r", "3", "--tau", "1i", "--u", "20i"], "leaves the double range: inf+nani"),
            (["eval", "--r", "1", "--tau", "1i", "--u", "1e17i"], "leaves the double range: nan+infi"),
            (["eval", "--r", "3", "--big-theta", "--tau", "1i", "--u", "75i"], "leaves the double range"),
            (["eval", "--char", "0.5,0.5", "--tau", "1i", "--u", "20i"], "leaves the double range"),
            (["eval", "--r", "3", "--tau", "1i", "--u", "20i", "--product"], "leaves the double range"),
        ],
        ids=["r-shift", "r-inf", "char-shift", "char-inf", "reduce-shift",
             "big-theta-shift", "big-theta-cell", "big-theta-zero-k", "r-inf-value",
             "r-nan-value", "big-theta-inf-value", "char-nan-value", "product-inf-value"],
    )
    def test_unevaluable_input_is_one_line_usage_error(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("thetakit: error: ")
        assert message in captured.err


    def test_large_finite_value_still_prints(self, capsys):
        assert main(["eval", "--r", "3", "--tau", "1i", "--u", "14i"]) == EXIT_OK
        assert capsys.readouterr().out == "2.8429487171531701e+267+0i\n"


class TestVerify:
    def test_single_identity_passes(self, capsys):
        assert main(["verify", "--id", "B.I.2", "--trials", "3", "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out and "B.I.2" in out

    def test_unknown_id(self, capsys):
        assert main(["verify", "--id", "NO.SUCH", "--trials", "1"]) == EXIT_UNKNOWN_ID
        assert "NO.SUCH" in capsys.readouterr().err

    def test_zero_trials_rejected(self, capsys):
        assert main(["verify", "--id", "B.I.1", "--trials", "0"]) == EXIT_USAGE
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    def test_non_finite_or_non_positive_tol_rejected(self, tol, capsys):
        # tol=inf passed every id and tol=nan failed every id
        code = main(["verify", "--id", "B.I.1", "--trials", "2", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "--tol must be finite and positive" in captured.err

    def test_json_report_round_trip(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(
            ["verify", "--id", "B.I.2", "--id", "TC.tc1", "--trials", "2",
             "--seed", "9", "--json", str(path)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["seed"] == 9 and payload["trials"] == 2
        assert [r["id"] for r in payload["reports"]] == ["B.I.2", "TC.tc1"]
        for report in payload["reports"]:
            assert set(report) == {"id", "trials", "seed", "max_abs", "max_rel", "status"}
            assert report["status"] == "pass"

    def test_seed0_report_matches_recorded_digest(self, tmp_path, capsys):
        # sha256 of the seed-0 report: the engine must reproduce every
        # report byte for byte (perfbench/baseline.json holds the digest
        # of the kernel before the peak-centred recurrence)
        path = tmp_path / "seed0.json"
        code = main(["verify", "--all", "--trials", "5", "--seed", "0", "--json", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "2af2726f68e4a6bbcfd22b57bff31c48ac5d0d0f2df4c8c481e1d9c83574854c"

    def test_per_id_lines_are_unchanged(self, capsys):
        # the lines as print() wrote them one at a time, failures included
        argv = ["verify", "--id", "B.I.2", "--id", "TC.tc1", "--id", "G.g1", "--trials", "2",
                "--seed", "9", "--stress", "--tol", "2e-15"]
        assert main(argv) == EXIT_VERIFY_FAIL
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert lines[:3] == [
            "FAIL  B.I.2          trials=2 max_rel=4.661e-15 max_abs=1.148e-04\n",
            "pass  TC.tc1         trials=2 max_rel=1.772e-15 max_abs=1.567e-13\n",
            "FAIL  G.g1           trials=2 max_rel=2.710e-15 max_abs=4.451e-15\n",
        ]
        assert lines[3].startswith("# 3 identities, seed=9, trials=2, tol=2e-15, FAILURES PRESENT (")
        assert len(lines) == 4

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        from thetakit import cli

        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        runs = [["reduce", "--tau", "0.3+0.8i"], ["eval", "--r", "3", "--tau", "1i"]]
        outs = []
        for _ in range(2):
            for argv in runs:
                assert main(argv) == EXIT_OK
                outs.append(capsys.readouterr().out)
            with pytest.raises(SystemExit):  # argparse's own usage error leaves the parser as it was
                main(["eval", "--tau", "1i"])
            capsys.readouterr()
        assert outs[:2] == outs[2:] == ["word       S\ntau'       -0.41095890410958896+1.095890410958904i\n", "1.086434811213308+0i\n"]
        assert len(built) == 1

    def test_byte_identical_reports(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(["verify", "--id", "R.I.1", "--trials", "2", "--seed", "7", "--json", str(path)])
            capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("argv", [["--id", "B.I.2"], ["--id", "G.g1", "--stress", "--tol", "2e-15"]])
    def test_unwritable_report_path_is_a_usage_error(self, argv, tmp_path, capsys):
        # exit 2 and one line, not a traceback and exit 1, which means an
        # identity failed; the second run fails G.g1
        path = tmp_path / "missing" / "report.json"
        code = main(["verify", *argv, "--trials", "2", "--seed", "9", "--json", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"thetakit: error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert not path.parent.exists()

    def test_unwritable_report_path_fails_before_the_run(self, tmp_path, capsys):
        # no per-id line and no summary: the path is opened before the first trial
        for path in (tmp_path / "missing" / "report.json", tmp_path):  # no folder; a folder
            code = main(["verify", "--all", "--trials", "1", "--json", str(path)])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert captured.out == ""
            assert captured.err.startswith(f"thetakit: error: cannot write {path}: ")
            assert captured.err.count("\n") == 1

    def test_unknown_id_keeps_an_existing_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("an older report, longer than the next one\n" * 2000)
        code = main(["verify", "--id", "R.I.1", "--id", "NO.SUCH", "--trials", "1", "--json", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_UNKNOWN_ID
        assert captured.out == ""
        assert captured.err == "thetakit: error: unknown identity id 'NO.SUCH'\n"
        assert path.read_text() == "an older report, longer than the next one\n" * 2000
        # a run that completes replaces the whole file
        assert main(["verify", "--id", "R.I.1", "--trials", "1", "--json", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert [row["id"] for row in json.loads(path.read_text())["reports"]] == ["R.I.1"]

    def test_stress_flag(self, capsys):
        code = main(
            ["verify", "--id", "B.I.4", "--trials", "3", "--seed", "2",
             "--stress", "--tol", "1e-8"]
        )
        capsys.readouterr()
        assert code == EXIT_OK


class TestCatalogCommand:
    def test_line_count_matches_catalog(self, capsys):
        assert main(["catalog"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(builtin_catalog())
        assert all(line.count("\t") == 2 for line in lines)

    def test_write_to_file(self, tmp_path, capsys):
        path = tmp_path / "catalog.tsv"
        assert main(["catalog", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert len(path.read_text().strip().splitlines()) == len(builtin_catalog())

    def test_unwritable_out_path_is_a_usage_error(self, tmp_path, capsys):
        for path in (tmp_path / "missing" / "catalog.tsv", tmp_path):  # no folder; a folder
            assert main(["catalog", "--out", str(path)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"thetakit: error: cannot write {path}: ")
            assert captured.err.count("\n") == 1


class TestZerosCommand:
    def test_theta1_row(self, capsys):
        assert main(["zeros", "--r", "1", "--tau", "1i", "--nmax", "1", "--mmax", "0"]) == EXIT_OK
        zs = {parse_complex(line) for line in capsys.readouterr().out.split()}
        assert zs == {-1 + 0j, 0j, 1 + 0j}

    def test_bad_range(self, capsys):
        assert main(["zeros", "--r", "1", "--tau", "1i", "--nmax", "-1"]) == EXIT_USAGE
        capsys.readouterr()


class TestReduceCommand:
    @pytest.mark.parametrize("command", ["eval", "reduce"])
    def test_tau_too_small_to_reduce_is_usage_error(self, command, capsys):
        tau = "0." + "0" * 309 + "1i"  # 1e-310i: -1/tau overflows
        extra = ["--r", "3", "--u", "0.1"] if command == "eval" else []
        assert main([command, "--tau", tau, *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "too small to reduce: -1/tau overflows" in err
        assert "Traceback" not in err

    def test_inversion_word(self, capsys):
        assert main(["reduce", "--tau", "0.5i"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "word       S" in out
        assert parse_complex(out.split()[3]) == 2j

    def test_translation_run_is_one_token(self, capsys):
        assert main(["reduce", "--tau", "3000000+0.5i"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "word       T^-3000000 S\n" in out

    def test_with_argument(self, capsys):
        assert main(["reduce", "--tau", "0.9i", "--u", "3.1+1.8i", "--r", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "log_mult" in out and "index" in out

    # sha256 of the stdout, pinned while the walk's end was still built
    # as a ModularParameter: default, near-cusp (4e-3 from 1/3), large Re tau
    @pytest.mark.parametrize(
        "tau,digest",
        [
            ("0.3+0.8i", "78c89cb3fe7e54b5ec33bc24e30477031b7dbd8ffe562417c8ed3a77bfccf77a"),
            ("0.33333+0.004i", "7dbde8d4cffbc4f5e03d41cbeaa02b871e8b810aefd8b0e61cd4ca210e0c33a2"),
            ("-712.4+1.3i", "50d7471cbdb6d54be8cd60418510a6c8d0950b5db0473c9019b0b2d68ca520ba"),
        ],
    )
    def test_stdout_is_pinned(self, tau, digest, capsys):
        assert main(["reduce", f"--tau={tau}", "--u", "0.7-0.4i", "--r", "1"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestOverflowingLogMultiplier:
    """Near the cusp at 3, K ~ 6.5e-155 and u/(2K) ~ 2.4e153: the word's
    u^2/tau phase overflows doubles, which is a usage error, not a bare
    "math domain error" or a record with log_mult inf-infi."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--r", "3", "--big-theta", "--u", "0.1-0.3i", "--tau", "3.002+0.003i"],
            ["eval", "--r", "3", "--u", "1.18e153+2.12e153i", "--tau", "3.002+0.003i"],
            ["eval", "--char", "0.25,0.75", "--u", "1.18e153+2.12e153i", "--tau", "3.002+0.003i"],
            ["reduce", "--tau", "3.002+0.003i", "--u", "1.18e153+2.12e153i", "--r", "3"],
        ],
        ids=["big-theta", "r", "char", "reduce"],
    )
    def test_is_one_line_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "cannot reduce u: the log multiplier of u=" in captured.err
        assert "overflows doubles" in captured.err

    def test_big_theta_quotes_the_callers_u(self, capsys):
        # the rescaled u/(2K) may follow, but the u first quoted is the one given
        argv = ["eval", "--r", "3", "--big-theta", "--u", "0.1-0.3i", "--tau", "3.002+0.003i"]
        assert main(argv) == EXIT_USAGE
        assert "the log multiplier of u=(0.1-0.3j) (u/(2K)=(1.18" in capsys.readouterr().err


class TestNegativeLiteralValues:
    """A value led by '-' that is not a plain negative number, given as its own token."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--r", "1", "--u", "-0.5+0.1i", "--tau", "1i"],
            ["eval", "--json", "--r", "2", "--u", "-3e-2-0.1i", "--tau", "-0.25+0.9i"],
            ["eval", "--char", "-0.25,0.5", "--tau", "1i"],
            ["eval", "--char", "-0.25,-1.5", "--u", "-1i", "--tau", "-1.5+0.5i"],
            ["reduce", "--tau", "-712.4+1.3i"],
            ["reduce", "--tau", "-0.33333+0.004i", "--u", "-0.7-0.4i", "--r", "3"],
        ],
        ids=["eval-u", "eval-u-tau", "eval-char", "eval-char-u-tau", "reduce-tau", "reduce-tau-u"],
    )
    def test_prints_what_the_attached_form_prints(self, argv, capsys):
        assert main(argv) == EXIT_OK
        separate = capsys.readouterr()
        attached = []
        for token in argv:
            if attached and attached[-1] in ("--u", "--tau", "--char"):
                attached[-1] += "=" + token
            else:
                attached.append(token)
        assert main(attached) == EXIT_OK
        assert capsys.readouterr() == separate
        assert separate.out and separate.err == ""

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["eval", "--r", "1", "--u", "--tau", "1i"], "--u"),
            (["eval", "--r", "1", "--tau", "1i", "--u"], "--u"),
            (["eval", "--char", "--tau", "1i"], "--char"),
            (["reduce", "--tau"], "--tau"),
            (["eval", "--r", "1", "--u", "-0.5+0.1j", "--tau", "1i"], "--u"),
        ],
        ids=["u-before-option", "u-last", "char", "tau-last", "u-not-a-literal"],
    )
    def test_missing_value_is_still_a_usage_error(self, argv, option, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [captured.err.splitlines()[-1]]
        assert errors[0].endswith(f"error: argument {option}: expected one argument")


class TestFlagConflicts:
    def test_char_with_big_theta_rejected(self, capsys):
        code = main(["eval", "--char", "0,0", "--u", "0", "--tau", "1i", "--big-theta"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_char_with_product_rejected(self, capsys):
        code = main(["eval", "--char", "0,0", "--u", "0", "--tau", "1i", "--product"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_big_theta_with_product_rejected(self, capsys):
        # Theta_1(u) = theta_1(u/2K) has no product form under the same u
        code = main(["eval", "--r", "1", "--u", "0.2", "--tau", "1i", "--big-theta", "--product"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--product" in captured.err


@pytest.mark.parametrize("n_rows", [0, 1, 2, 155])
def test_verify_report_json_equals_the_indented_encoder(n_rows):
    import math

    from thetakit.cli import _report_json

    # ids that quote, escape, or look like the layout's own separators
    ids = ["B.I.1", 'a"b', "c'd\ne", "},\n      {", '"reports": 0', "[{", "}]", "\\", "é#"]
    rows = [
        {"id": ids[i % len(ids)], "trials": 5, "seed": 3, "status": "pass" if i % 3 else "fail",
         "max_abs": [math.inf, math.nan, -0.0, 1e-300, 3.5][i % 5],
         "max_rel": [0.0, math.nan, 1.2e-17, math.inf][i % 4]}
        for i in range(n_rows)
    ]
    payload = {"version": "0.1.0", "command": "verify", "seed": 42, "trials": 5, "tol": 1e-9,
               "stress": False, "all_pass": n_rows % 2 == 0, "reports": rows}
    assert _report_json(payload) == json.dumps(payload, indent=2, sort_keys=True)
