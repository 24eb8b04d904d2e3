import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import carpetcurl
from carpetcurl import cli, witness
from carpetcurl.carpet import Prefractal
from carpetcurl.cli import EXIT_BOUND_FAILED, EXIT_CONFIG, EXIT_OK, main
from carpetcurl.report import VerificationReport

F = Fraction
# report entries that are ints, not Fractions, in verify's report
INTEGER_ENTRIES = {("tent_count_per_column_max", "value"),
                   ("local_constancy_violations", "value"),
                   ("local_constancy_violations", "bound")}


def run(argv):
    return main(argv)


def report_digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.csv", "report.json")}


# sha256 of report.csv and report.json of the wide_stage benchmark call
# (verify --generator odd-reciprocal --nmax 3 --depth 2) per target: the
# benchmark's own f = 1, a held-out-style constant, a target with both
# slopes nonzero, under which the ramp's band seams interpolate two maps,
# and the two coordinates
WIDE_STAGE_ARGV = ["verify", "--generator", "odd-reciprocal", "--nmax", "3", "--depth", "2"]
WIDE_STAGE_GOLDEN = {
    "const": {
        "report.csv": "ad18ee3ff7ed29e50d7166a9b788debbd5f07ffe586c2cdb0e0c3ad59443e4c2",
        "report.json": "1e12b29f6d397cfa86729d9864d5a12cea7cbb5cfa5cef313df64d22a8034458",
    },
    "affine:-7/3,0,0": {
        "report.csv": "bee3cab1919df5dd525ad610941eb14e2e4cf36777087feb0074d6353f19c936",
        "report.json": "949fc38deceb80aba46223fe96b6629743364b33a3fc96f9bd931cd73da71568",
    },
    "affine:1/3,2/5,-3/7": {
        "report.csv": "365605f63118c8f9589a14edad049c9b023637c3b76bb7a2e8bf8a652f01b5ed",
        "report.json": "bd8772459ee73bce334d5852cc7f19d4db2831519653945b6dd0989e150773f3",
    },
    "x": {
        "report.csv": "a707b3bb28b7f2bcf0a5f3cc8267dff670062bc8bd149172dd509b75e98259fe",
        "report.json": "937dc29cbbd0b7d5c90089b7654209bc35cf708e6acca3373f03a28ce011acfd",
    },
    "y": {
        "report.csv": "e5f783233055530caaa5b759ed69755ad283f6d843883250af3274ab47be463c",
        "report.json": "c47fb40ad13afce867cda01da689c581c8ad48e35bdee50ada4961078d82a0a9",
    },
}


class TestSpecCheck:
    def test_valid_spec(self, capsys):
        assert run(["spec-check", "--ratios", "1/3,1/5,1/7",
                    "--generator", "odd-reciprocal"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hypothesis satisfied: True" in out

    def test_the_package_runs_as_a_module(self):
        # python -m carpetcurl runs the same CLI as the carpetcurl script
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "carpetcurl", "spec-check",
                               "--generator", "odd-reciprocal"],
                              capture_output=True, text=True, env={"PYTHONPATH": src})
        assert done.returncode == EXIT_OK, done.stderr
        assert "hypothesis satisfied: True" in done.stdout

    def test_even_reciprocal_is_config_error(self):
        assert run(["spec-check", "--ratios", "1/4"]) == EXIT_CONFIG

    def test_garbage_ratios_is_config_error(self):
        assert run(["spec-check", "--ratios", "1/3,zebra"]) == EXIT_CONFIG

    def test_missing_spec_is_config_error(self):
        assert run(["spec-check"]) == EXIT_CONFIG

    def test_empty_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("generator = none\n")
        assert run(["spec-check", "--config", str(cfg)]) == EXIT_CONFIG
        assert "no ratios given" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["ratios = 1/3\nratios = 1/5\n",
                                      "ratios = 1/3\ngenerator = none\nGenerator = constant\n"])
    def test_repeated_config_key_is_config_error(self, tmp_path, capsys, text):
        # a repeated key must not silently win over the first
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text(text)
        assert run(["spec-check", "--config", str(cfg)]) == EXIT_CONFIG
        assert "repeated config key" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--ratios", "1/5"), ("--generator", "constant")])
    def test_config_with_spec_flags_is_config_error(self, tmp_path, flags):
        # the config file gives the whole spec; a flag beside it would be ignored
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("ratios = 1/3\n")
        assert run(["spec-check", "--config", str(cfg), *flags]) == EXIT_CONFIG

    def test_option_the_subcommand_ignores_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["carpet", "--ratios", "1/3", "--depth", "1", "--nmax", "99"])
        assert exc.value.code == EXIT_CONFIG
        assert "--nmax" in capsys.readouterr().err


class TestOutDir:
    @pytest.mark.parametrize("command", [
        ["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1"],
        ["carpet", "--ratios", "1/3", "--depth", "1"],
    ])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, command, under):
        # an existing file, or a path below one
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run(command + ["--out", str(blocker / under)]) == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, names", [
        (["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1"],
         ("report.csv", "report.json")),
        (["carpet", "--ratios", "1/3", "--depth", "1"], ("carpet.svg", "carpet.json")),
        (["figures", "--ratios", "1/3", "--nmax", "1"],
         ("cells.svg", "phi.svg", "psi.svg", "unk.svg")),
    ])
    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, monkeypatch,
                                              command, names):
        # each output file name is checked before any work starts, so no
        # verification runs and no other output file is written
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output names were checked")

        for attr in ("verify_witness_sequence", "carpet_svg"):
            monkeypatch.setattr(cli, attr, no_work)
        for name in names:
            out = tmp_path / name.replace(".", "_")
            (out / name).mkdir(parents=True)
            assert run(command + ["--out", str(out)]) == EXIT_CONFIG
            assert f"{name} is a directory" in capsys.readouterr().err
            assert [p.name for p in out.iterdir()] == [name]


class TestFailFast:
    @pytest.mark.parametrize("command", [
        ["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1", "--f", "bogus"],
        ["verify", "--ratios", "1/3,1/5,1/7", "--nmax", "4", "--depth", "2"],
        ["verify", "--ratios", "1/3,1/5,1/7", "--nmax", "2", "--depth", "4"],
        ["carpet", "--ratios", "1/3", "--depth", "2"],
        ["figures", "--ratios", "1/3", "--nmax", "2"],
        ["figures", "--ratios", "1/3", "--nmax", "0"],
    ])
    def test_config_error_leaves_no_out_dir(self, tmp_path, monkeypatch, command):
        # every configuration check, including that the spec defines each
        # stage the run needs, comes before the output directory and before
        # the first stage is built
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage was built before the configuration was checked")

        monkeypatch.setattr(witness, "build_stage", no_stage)
        out = tmp_path / "new"
        assert run(command + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestCarpet:
    def test_level_one_has_eight_squares(self, tmp_path):
        out = tmp_path / "c1"
        assert run(["carpet", "--ratios", "1/3", "--depth", "1",
                    "--out", str(out)]) == EXIT_OK
        svg = (out / "carpet.svg").read_text()
        assert svg.count('fill="black"') == 8
        payload = json.loads((out / "carpet.json").read_text())
        assert payload["measure"] == [8, 9]
        assert len(payload["holes"]) == 1

    def test_level_two_has_192_squares(self, tmp_path):
        out = tmp_path / "c2"
        assert run(["carpet", "--ratios", "1/3,1/5", "--depth", "2",
                    "--out", str(out)]) == EXIT_OK
        svg = (out / "carpet.svg").read_text()
        assert svg.count('fill="black"') == 192

    def test_depth_beyond_ratios_is_config_error(self, tmp_path):
        assert run(["carpet", "--ratios", "1/3", "--depth", "2",
                    "--out", str(tmp_path)]) == EXIT_CONFIG


class TestFigures:
    def test_figure_files_written(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["figures", "--ratios", "1/3,1/5", "--nmax", "2",
                    "--out", str(out)]) == EXIT_OK
        for name in ("cells.svg", "phi.svg", "psi.svg", "unk.svg"):
            content = (out / name).read_text()
            assert content.startswith("<?xml")
            assert "<svg" in content

    # sha256 of the four stage figures per command; they pin the bytes of the
    # Fraction grid that the int stage lines replaced
    FIGURES_GOLDEN = {
        ("--ratios", "1/3,1/5", "--nmax", "2"): {
            "cells.svg": "82ebc7098044a642b07a2e2d9992d7f6805142aa9252be7dafce2fa1440b1a35",
            "phi.svg": "305aa13f73e8761b2eb97712137cae555126e4c2958aa783d234e78bed21b65d",
            "psi.svg": "79806df52cee57e9e74efd75ad2c0b9741a4d54c6543fd8956da919574889fb0",
            "unk.svg": "42de3d0cbbfd39cae268721e11eafc05ce46b74bab2a8207f6249f9d93ff4a46",
        },
        ("--generator", "odd-reciprocal", "--nmax", "3"): {
            "cells.svg": "509999cb8abf7d1e1e7470f657ff3935a421bab757cab51ad8225603f6528efb",
            "phi.svg": "eef75363f04a5071e9239871c3607a56a28a27ff3be689c936372a0ba6261e9d",
            "psi.svg": "2c4d7a7ee1ba04b7ef1ab5a550bf5d18ecd5b68b39e0d815c98bcf8ebf45d45c",
            "unk.svg": "3caff3d1eb00eaf4d5751b44b759bfaeef75cd704a2d6d63ef06939235e18d80",
        },
    }

    @pytest.mark.parametrize("args", FIGURES_GOLDEN)
    def test_figures_reproduce_the_golden_bytes(self, tmp_path, args):
        out = tmp_path / "golden"
        assert run(["figures", *args, "--out", str(out)]) == EXIT_OK
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in cli.FIGURES} == self.FIGURES_GOLDEN[args]

    def test_tent_figure_counts_trapezoids(self, tmp_path):
        out = tmp_path / "figs2"
        run(["figures", "--ratios", "1/3,1/5", "--nmax", "2", "--out", str(out)])
        psi = (out / "psi.svg").read_text()
        assert psi.count("<polygon") == 12


class TestVerify:
    def test_small_run_reports_and_exit_code(self, tmp_path):
        out = tmp_path / "v1"
        code = run(["verify", "--ratios", "1/3,1/5", "--nmax", "2",
                    "--depth", "2", "--out", str(out)])
        # the witness norm rises from stage one to stage two, so the
        # monotonicity row fails and the exit code reports a failed bound
        assert code == EXIT_BOUND_FAILED
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "exact"
        failed = [r for r in report["rows"] if r["passed"] is False]
        assert [r["name"] for r in failed] == ["witness_l2_strictly_decreasing"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1"]
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_f64_mode_marker(self, tmp_path):
        out = tmp_path / "f64"
        run(["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1",
             "--mode", "f64", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "f64"

    @pytest.mark.parametrize("spec", [
        ("--ratios", "1/3,1/5", "--nmax", "2", "--depth", "2", "--f", "x"),
        ("--generator", "odd-reciprocal", "--nmax", "2", "--depth", "2"),
    ])
    def test_f64_report_is_the_exact_report_rounded_once(self, tmp_path, spec):
        # f64 only changes how the finished report prints: its flags and exit
        # code are the exact ones, and each rational is float(num/den)
        exact_code = run(["verify", *spec, "--out", str(tmp_path / "exact")])
        f64_code = run(["verify", *spec, "--mode", "f64", "--out", str(tmp_path / "f64")])
        exact = json.loads((tmp_path / "exact" / "report.json").read_text())
        f64 = json.loads((tmp_path / "f64" / "report.json").read_text())
        assert f64_code == exact_code
        assert f64["mode"] == "f64"

        def rounded(row, field, v):
            # integer counts keep their type and still print as [count, 1]
            if isinstance(v, list) and (row["name"], field) not in INTEGER_ENTRIES:
                return v[0] / v[1]
            return v

        expected = []
        for row in exact["rows"]:
            row = dict(row, value=rounded(row, "value", row["value"]),
                       bound=rounded(row, "bound", row["bound"]))
            if row["tail"]:
                row["tail"] = [rounded(row, "tail", v) for v in row["tail"]]
            expected.append(row)
        assert f64["rows"] == expected

    def test_config_file_input(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("ratios = 1/3\n")
        out = tmp_path / "vc"
        assert run(["verify", "--config", str(cfg), "--nmax", "1", "--depth", "1",
                    "--out", str(out)]) in (EXIT_OK, EXIT_BOUND_FAILED)
        assert (out / "report.csv").exists()

    def test_affine_target(self, tmp_path):
        out = tmp_path / "aff"
        code = run(["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1",
                    "--f", "affine:1/2,1/3,0", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_BOUND_FAILED)

    def test_no_stage_is_config_error(self, tmp_path, capsys):
        assert run(["verify", "--generator", "odd-reciprocal", "--nmax", "0",
                    "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "--nmax 0" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_depth_zero_is_config_error(self, tmp_path, capsys):
        assert run(["verify", "--generator", "odd-reciprocal", "--depth", "0",
                    "--nmax", "1", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "--depth 0" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_depth_below_nmax_is_accepted(self, tmp_path):
        out = tmp_path / "shallow"
        assert run(["verify", "--ratios", "1/3,1/5", "--nmax", "2", "--depth", "1",
                    "--out", str(out)]) in (EXIT_OK, EXIT_BOUND_FAILED)
        assert (out / "report.json").exists()

    def test_nothing_checked_is_no_success(self, tmp_path, monkeypatch, capsys):
        # a report with only unflagged rows proves nothing, so it must not exit 0
        def unchecked(*args, **kwargs):
            report = VerificationReport()
            report.add("witness", 1, "strip_area", F(1, 3))
            return report

        monkeypatch.setattr(cli, "verify_witness_sequence", unchecked)
        monkeypatch.setattr(cli, "verify_wedge_approximation", unchecked)
        out = tmp_path / "empty"
        assert run(["verify", "--ratios", "1/3,1/5", "--nmax", "2", "--depth", "2",
                    "--out", str(out)]) == EXIT_BOUND_FAILED
        assert "no bound was checked" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert [r["passed"] for r in report["rows"]] == [None, None]

    def test_classical_carpet_is_a_negative_control(self, tmp_path):
        # the classical carpet has measure zero: its curl defect stalls from
        # stage 2 to stage 3 and its wedge norm stays below 3/4, so it fails
        out = tmp_path / "classical"
        assert run(["verify", "--ratios", "1/3", "--generator", "constant", "--nmax", "3",
                    "--depth", "4", "--out", str(out)]) == EXIT_BOUND_FAILED
        rows = {(r["section"], r["n"], r["name"]): r
                for r in json.loads((out / "report.json").read_text())["rows"]}
        assert [rows["witness", n, "curl_defect_l2"]["value"] for n in (1, 2, 3)] == [
            [3511, 13122], [1756, 6561], [1760, 6561]]
        wedge = rows["wedge", None, "wedge_norm_sq"]
        assert (wedge["value"], wedge["bound"], wedge["passed"]) == ([512, 729], [3, 4], False)

    @staticmethod
    def assert_reference_rows(workload, argv, tmp_path):
        # a benchmark call, run in-process, pinned to its committed reference rows
        reference_path = (Path(__file__).resolve().parents[1]
                          / "perfbench" / "reference" / f"{workload}.json")
        reference = json.loads(reference_path.read_text())
        assert reference["command"] == ["carpetcurl"] + argv
        out = tmp_path / workload
        # the stage-2 witness norm exceeds the stage-1 one by design
        assert run(argv + ["--out", str(out)]) == EXIT_BOUND_FAILED
        report = json.loads((out / "report.json").read_text())
        assert report["rows"] == reference["rows"]

    def test_deep_walk_reproduces_the_reference_rows(self, tmp_path):
        self.assert_reference_rows(
            "deep_walk", ["verify", "--generator", "odd-reciprocal", "--nmax", "2",
                          "--depth", "4", "--f", "const"], tmp_path)

    def test_wide_stage_reproduces_the_reference_rows(self, tmp_path):
        # depth 2 < stage 3: the stage-3 hole squares still carry measure
        self.assert_reference_rows(
            "wide_stage", ["verify", "--generator", "odd-reciprocal", "--nmax", "3",
                           "--depth", "2", "--f", "const"], tmp_path)

    def test_default_deep_run_reproduces_the_golden_reports(self, tmp_path):
        # the README's default deep run; an exact refactor keeps both files
        # byte for byte (a report header would change these hashes)
        out = tmp_path / "deep"
        assert run(["verify", "--generator", "odd-reciprocal", "--nmax", "3", "--depth", "4",
                    "--f", "const", "--out", str(out)]) == EXIT_BOUND_FAILED
        assert report_digests(out) == {
            "report.csv": "ffc334d24d9be839aa8924e2367da422143e5524a67a44471fda3d1d84c962ea",
            "report.json": "1f3783e6c4b64c839c9d1b04c700851f38c05266e05e3aff6569618017adf34d",
        }

    def test_default_deep_run_reproduces_the_golden_reports_under_optimization(self, tmp_path):
        # python -O strips every assert, so the same bytes show that no
        # invariant of the deep run rests on one
        out = tmp_path / "deep-O"
        argv = ["verify", "--generator", "odd-reciprocal", "--nmax", "3", "--depth", "4",
                "--f", "const", "--out", str(out)]
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-O", "-m", "carpetcurl.cli", *argv],
                              capture_output=True, text=True, env={"PYTHONPATH": src})
        assert done.returncode == EXIT_BOUND_FAILED, done.stderr
        assert report_digests(out) == {
            "report.csv": "ffc334d24d9be839aa8924e2367da422143e5524a67a44471fda3d1d84c962ea",
            "report.json": "1f3783e6c4b64c839c9d1b04c700851f38c05266e05e3aff6569618017adf34d",
        }

    def test_depth_five_run_reproduces_the_golden_reports(self, tmp_path):
        # the README's routine depth-5 run, pinned like the default deep run
        out = tmp_path / "depth5"
        assert run(["verify", "--generator", "odd-reciprocal", "--nmax", "3", "--depth", "5",
                    "--f", "const", "--out", str(out)]) == EXIT_BOUND_FAILED
        assert report_digests(out) == {
            "report.csv": "d25812e2c652c20e53765a18ea45122e94359c03694a0f7e79087b340a2cd9b5",
            "report.json": "68b76828845fc387537f177a92b709176cf7dc39f252369f2f945c7c2e06f83a",
        }

    def test_stage_four_run_reproduces_the_golden_reports(self, tmp_path):
        # stage 4 at depth 4: the one golden run whose walks meet about
        # 10,000 leaves crossed by two or more region lines
        out = tmp_path / "stage4"
        assert run(["verify", "--generator", "odd-reciprocal", "--nmax", "4", "--depth", "4",
                    "--f", "const", "--out", str(out)]) == EXIT_BOUND_FAILED
        assert report_digests(out) == {
            "report.csv": "f2f1f2bc1141e126068f60c38ec3435a3d397abdfd642aa8a2c9b272d0a72cd9",
            "report.json": "a26007cf92d99ead9e7204085aae0b2a7bc0a00d46edbb24a61dad67fde815d1",
        }

    @pytest.mark.parametrize("target", WIDE_STAGE_GOLDEN)
    def test_wide_stage_reproduces_the_golden_reports(self, tmp_path, target):
        # the stage-3 tent energy and the witness norm trend fail by design
        out = tmp_path / "wide"
        assert run(WIDE_STAGE_ARGV + ["--f", target, "--out", str(out)]) == EXIT_BOUND_FAILED
        assert report_digests(out) == WIDE_STAGE_GOLDEN[target]

    def test_wide_stage_reproduces_the_golden_reports_under_optimization(self, tmp_path):
        # the seams' orientation check is no assert, so python -O gives the
        # same bytes
        out = tmp_path / "wide-O"
        src = str(Path(carpetcurl.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-O", "-m", "carpetcurl.cli", *WIDE_STAGE_ARGV,
                               "--f", "const", "--out", str(out)],
                              capture_output=True, text=True, env={"PYTHONPATH": src})
        assert done.returncode == EXIT_BOUND_FAILED, done.stderr
        assert report_digests(out) == WIDE_STAGE_GOLDEN["const"]

    def test_bad_target_is_config_error(self, tmp_path):
        assert run(["verify", "--ratios", "1/3", "--nmax", "1", "--depth", "1",
                    "--f", "sin", "--out", str(tmp_path)]) == EXIT_CONFIG


class TestOnePrefractalPerLevel:
    """``verify`` shares one prefractal per level between its two sections,
    so the wedge section walks only the mirror orbits the witness section
    has not walked."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # the section of each class walk, and each level built
        walks, built, section = [], [], ["witness"]
        walk, init, wedge = Prefractal._walk, Prefractal.__init__, cli.verify_wedge_approximation

        def counted_walk(self, *args):
            walks.append(section[0])
            return walk(self, *args)

        def marked_wedge(*args, **kwargs):
            section[0] = "wedge"
            return wedge(*args, **kwargs)

        def counted_init(self, spec, level):
            built.append(level)
            init(self, spec, level)

        monkeypatch.setattr(Prefractal, "_walk", counted_walk)
        monkeypatch.setattr(Prefractal, "__init__", counted_init)
        monkeypatch.setattr(cli, "verify_wedge_approximation", marked_wedge)
        return walks, built

    @staticmethod
    def verify(nmax, depth, out):
        return run(["verify", "--generator", "odd-reciprocal", "--nmax", str(nmax),
                    "--depth", str(depth), "--out", str(out)])

    @pytest.mark.parametrize("nmax, depth, witness_walks, wedge_walks", [
        # wide_stage: the wedge section shares the level-2 prefractal
        (3, 2, 57, 6),
        (2, 4, 26, 12),   # deep_walk: it walks on its own level-3 one
    ])
    def test_the_wedge_section_walks_only_new_orbits(self, counted, tmp_path, nmax, depth,
                                                     witness_walks, wedge_walks):
        walks, _ = counted
        self.verify(nmax, depth, tmp_path)
        assert walks.count("witness") == witness_walks
        assert walks.count("wedge") == wedge_walks

    @pytest.mark.parametrize("depth, levels", [(2, [2]), (3, [3]), (4, [4, 3])])
    def test_the_wedge_section_reuses_the_prefractal_of_its_level(self, counted, tmp_path,
                                                                  depth, levels):
        # the wedge section integrates over P_min(depth, 3)
        _, built = counted
        self.verify(2, depth, tmp_path)
        assert built == levels


class TestSvgDeterminism:
    # sha256 of carpet.svg and carpet.json per command, as the Fraction
    # square and hole enumeration wrote them
    CARPET_GOLDEN = {
        ("--ratios", "1/3,1/5", "--depth", "2"): {
            "carpet.svg": "476589e2956be7d56baad8a3616d68fd1a13209b36eba226cd513fb2e46ac7ad",
            "carpet.json": "e12e7bc067536b8921ceae56d1b661a5bbddece0385651c9add29c807574bc9e",
        },
        ("--generator", "odd-reciprocal", "--depth", "3"): {
            "carpet.svg": "1a44bee0b13cae3d960997ffb97378bb64ea5647f411711b4b1bb204f6b0849c",
            "carpet.json": "19402c6cb2049c1cf5f26b35750bd9b54452b3aeff8d03703b3615d98a9d9108",
        },
    }

    @pytest.mark.parametrize("args", CARPET_GOLDEN)
    def test_carpet_reproduces_the_golden_bytes(self, tmp_path, args):
        out = tmp_path / "golden"
        assert run(["carpet", *args, "--out", str(out)]) == EXIT_OK
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("carpet.svg", "carpet.json")} == self.CARPET_GOLDEN[args]

    def test_carpet_svg_byte_identical(self, tmp_path):
        args = ["carpet", "--ratios", "1/3,1/5", "--depth", "2"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert (out1 / "carpet.svg").read_bytes() == (out2 / "carpet.svg").read_bytes()

    def test_figures_byte_identical(self, tmp_path):
        args = ["figures", "--ratios", "1/3,1/5", "--nmax", "2"]
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        for name in ("cells.svg", "phi.svg", "psi.svg", "unk.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
