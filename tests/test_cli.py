import hashlib
import json
import shlex
import subprocess
import sys
import time

import pytest

from helpers import CYCLIC_LAW, plant_law
from thetajordan.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    RunConfig,
    _config_echo,
    main,
    parse_args,
    run,
)


CORRUPT_ENV_VAR = "THETA_JORDAN_CORRUPT_MUL"


def parse(cmdline):
    return parse_args(shlex.split(cmdline))


def run_cli(args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "thetajordan", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestParseArgs:
    def test_defaults(self):
        config = parse("verify")
        assert config == RunConfig()
        assert config.manifold_class == "both"
        assert config.n_max == 6
        assert config.mode == "both"
        assert config.output_format == "table"
        assert config.oracle_cap == 512

    def test_flag_echo(self):
        config = parse("verify --max-n 6 --mode both")
        assert config.n_max == 6
        assert config.mode == "both"

    def test_structural_run_config(self):
        config = parse("verify --class 1 --mode structural --max-n 1000000")
        assert config.manifold_class == "1"
        assert config.mode == "structural"
        assert config.n_max == 1000000
        assert config.parities == (1,)

    def test_full_flag_set(self):
        config = parse(
            "verify --class 0 --max-n 9 --mode oracle --oracle-cap 1000 "
            "--format json --out r.json --base-group Z2xZ2 --seed 7 "
            "--no-timestamps"
        )
        assert config.manifold_class == "0"
        assert config.oracle_cap == 1000
        assert config.output_format == "json"
        assert config.output_path == "r.json"
        assert config.base_group == "Z2xZ2"
        assert config.seed == 7
        assert config.no_timestamps
        # the report echoes each field under its own key
        assert _config_echo(config) == {
            "class": "0", "max_n": 9, "mode": "oracle", "oracle_cap": 1000,
            "format": "json", "out": "r.json", "base_group": "Z2xZ2",
            "seed": 7, "no_timestamps": True,
        }

    def test_bad_enum_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse("verify --mode orakle")
        assert err.value.code == EXIT_USAGE

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse("verify --frobnicate")
        assert err.value.code == EXIT_USAGE

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args([])
        assert err.value.code == EXIT_USAGE

    def test_bad_bounds_exit_2(self):
        for bad in ("verify --max-n 0", "verify --oracle-cap 0"):
            with pytest.raises(SystemExit) as err:
                parse(bad)
            assert err.value.code == EXIT_USAGE

    def test_oracle_cap_above_enumeration_cap_exits_2(self, capsys):
        assert parse("verify --oracle-cap 4096").oracle_cap == 4096
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(shlex.split("verify --oracle-cap 10000 --max-n 20"))
        assert time.perf_counter() - start < 1.0  # rejected before any table
        assert err.value.code == EXIT_USAGE
        assert "4096" in capsys.readouterr().err


class TestRun:
    def test_default_run(self, capsys):
        doc, code = run(RunConfig())
        assert code == EXIT_OK
        entries = [e for r in doc["reports"] for e in r["entries"]]
        assert len(entries) == 6
        assert sorted(e["n"] for e in entries) == [1, 2, 3, 4, 5, 6]
        assert doc["ok"] is True
        assert "theta-jordan/1" in capsys.readouterr().out

    def test_class0_oracle(self, capsys):
        doc, code = run(parse("verify --class 0 --max-n 4 --mode oracle"))
        capsys.readouterr()
        assert code == EXIT_OK
        (report,) = doc["reports"]
        assert [e["n"] for e in report["entries"]] == [2, 4]
        assert [e["min_abelian_index"] for e in report["entries"]] == [2, 4]
        assert all(e["method"] == "oracle" for e in report["entries"])

    def test_class1_small(self, capsys):
        doc, code = run(parse("verify --class 1 --max-n 3"))
        capsys.readouterr()
        assert code == EXIT_OK
        (report,) = doc["reports"]
        assert [e["n"] for e in report["entries"]] == [1, 3]
        assert [e["min_abelian_index"] for e in report["entries"]] == [1, 3]

    def test_oracle_mode_over_cap_is_usage_error(self, capsys):
        doc, code = run(parse("verify --class 1 --max-n 9 --mode oracle"))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "oracle cap" in captured.err

    def test_structural_mode_has_no_cap_issues(self, capsys):
        doc, code = run(parse("verify --class 1 --mode structural --max-n 41"))
        capsys.readouterr()
        assert code == EXIT_OK
        (report,) = doc["reports"]
        assert report["entries"][-1]["n"] == 41
        assert all(e["method"] == "structural" for e in report["entries"])

    def test_base_group_override(self, capsys):
        doc, code = run(parse("verify --base-group Z2xZ2 --format json"))
        capsys.readouterr()
        assert code == EXIT_OK
        (report,) = doc["reports"]
        (entry,) = report["entries"]
        assert entry["n"] == 4  # |K| is the bound target
        assert entry["min_abelian_index"] == 4
        assert report["manifold_class"] == 0
        assert report["threshold_certificates"] == []

    def test_base_group_cap_error_names_the_group(self, capsys):
        doc, code = run(parse("verify --base-group Z4xZ4 --mode oracle"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "Z4xZ4" in err
        assert "level 16" not in err

    def test_bad_base_group_is_usage_error(self, capsys):
        doc, code = run(parse("verify --base-group Q8"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err

    def test_json_schema_fields(self, capsys):
        doc, code = run(parse("verify --max-n 2 --format json --no-timestamps"))
        out = capsys.readouterr().out
        emitted = json.loads(out)
        assert emitted == doc
        assert doc["schema"] == "theta-jordan/1"
        assert "generated_at" not in doc
        assert doc["config"]["seed"] == 0
        for report in doc["reports"]:
            for entry in report["entries"]:
                assert "elapsed_s" not in entry

    def test_timestamps_present_by_default(self, capsys):
        doc, code = run(parse("verify --max-n 2 --format json"))
        capsys.readouterr()
        assert "generated_at" in doc
        entry = doc["reports"][0]["entries"][0]
        assert isinstance(entry["elapsed_s"], float)

    def test_csv_format(self, capsys):
        doc, code = run(parse("verify --max-n 4 --format csv --no-timestamps"))
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == (
            "class,n,group_order,max_abelian_order,min_abelian_index,"
            "method,elapsed_s"
        )
        assert len(lines) == 5  # header + n in {1,2,3,4}
        assert lines[1].startswith("0,2,8,4,2,both")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        doc, code = run(
            parse(f"verify --max-n 2 --format json --no-timestamps --out {target}")
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text()) == doc

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        doc, code = run(parse(f"verify --max-n 2 --out {target}"))
        assert code == EXIT_IO
        assert "cannot write" in capsys.readouterr().err

    def test_corrupt_hook_forces_violation(self, monkeypatch, capsys):
        plant_law(monkeypatch, CYCLIC_LAW)
        doc, code = run(parse("verify --class 0 --max-n 2 --format json"))
        capsys.readouterr()
        assert code == EXIT_VIOLATION
        assert doc["ok"] is False
        assert doc["violations"]

    def test_violations_are_listed_once(self, monkeypatch, capsys):
        # level 3's disagreement shows up in its entry and in the threshold-1
        # certificate, which lands on level 3 too; the certificate's line
        # names its threshold
        plant_law(monkeypatch, CYCLIC_LAW)
        doc, code = run(parse("verify --class 1 --max-n 3 --no-timestamps"))
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        vio = doc["violations"]
        assert len(set(vio)) == len(vio)
        assert [v for v in vio if v.startswith("threshold 1: ")] == [
            "threshold 1: level 3: oracle max abelian order 27 (index 1) "
            "disagrees with structural 9 (index 3)"
        ]
        block = out.split("VIOLATIONS:\n")[1].split("\n\n")[0]
        assert block.splitlines() == [f"  {v}" for v in vio]
        assert out.endswith("result: FAILED\n")

    def test_empty_class_table(self, capsys):
        doc, code = run(parse("verify --class 0 --max-n 1 --no-timestamps"))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert doc["reports"][0]["entries"] == []
        assert "  (no levels in range)\n" in out

    def test_library_ignores_the_corrupt_variable(self, monkeypatch, capsys):
        # only the python -m launcher reads it; main() runs the true law
        argv = ["verify", "--class", "0", "--max-n", "2", "--format", "json",
                "--no-timestamps"]
        assert main(argv) == EXIT_OK
        clean = capsys.readouterr()
        monkeypatch.setenv(CORRUPT_ENV_VAR, "1")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == clean

    def test_main_returns_exit_code(self, capsys):
        assert main(["verify", "--max-n", "2", "--class", "1"]) == EXIT_OK
        capsys.readouterr()


class TestBinary:
    def test_exit_codes_end_to_end(self, tmp_path):
        good = run_cli(["verify", "--class", "1", "--max-n", "3"])
        assert good.returncode == EXIT_OK
        assert "result: OK" in good.stdout

        bad = run_cli(
            ["verify", "--class", "1", "--max-n", "3"],
            env={CORRUPT_ENV_VAR: "1"},
        )
        assert bad.returncode == EXIT_VIOLATION
        assert "result: FAILED" in bad.stdout

        usage = run_cli(["verify", "--mode", "orakle"])
        assert usage.returncode == EXIT_USAGE

        io_err = run_cli(
            ["verify", "--max-n", "2", "--out", str(tmp_path / "no" / "x")]
        )
        assert io_err.returncode == EXIT_IO

    def test_cli_imports_only_what_a_run_uses(self):
        # a fresh interpreter, compared with what it loaded before the import
        # so that site preloads do not count
        probe = (
            "import sys; before = set(sys.modules); import thetajordan.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        added = set(done.stdout.split())
        assert "thetajordan.cli" in added
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "datetime"}
        assert not added & heavy

    def test_lazily_imported_paths(self):
        csv_run = run_cli(["verify", "--max-n", "2", "--format", "csv", "--no-timestamps"])
        assert csv_run.returncode == EXIT_OK, csv_run.stderr
        assert csv_run.stdout.startswith(
            "class,n,group_order,max_abelian_order,min_abelian_index,method,elapsed_s\n"
        )
        table = run_cli(["verify", "--max-n", "2", "--format", "table"])
        assert table.returncode == EXIT_OK, table.stderr
        assert "\ngenerated at " in table.stdout

    def test_byte_identical_json(self):
        args = ["verify", "--no-timestamps", "--format", "json"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == EXIT_OK
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["ok"] is True

    # sha256 of the report's stdout bytes, so a run is compared with a
    # fixed product, not only with another run of the same code.  A change
    # that alters the output on purpose updates these digests and says so.
    PINNED = {
        "": "9d4ebca0529b7bcfddd7fe9297ee1f5b31e27176e03fbcddbc3d05603c7d170d",
        "--max-n 8":
            "73728d75f22f831c0972b1582fa1d215751026dd6a60dbb4d4ac21e7d231f88c",
        "--mode structural --max-n 1000":
            "168dfc42d63c6fa1feaa12626e3af0f4faf58ba97b0600d233d416d3a8010172",
        "--base-group Z2xZ2xZ2":
            "3300fcec7e5c058bc7bb8a23e3d236c5cce850f06c977f3e008c40ba7ae53571",
        "--mode oracle --max-n 8":
            "3d2141dbf829dd68fe694929120e0567b8eda76fc92ea08b4ed9e0a7cdd8b75e",
        "--max-n 8 --format csv":
            "86dc163473ca7ce447773ac287b9f61bd91797e72485cf0289b097545b6e4a95",
        "--max-n 8 --format table":
            "fc571a478ce5bedcf3e4689af347aaf4fad0f48fe36f128aca28b9a31be4677c",
    }

    @pytest.mark.parametrize("args", PINNED)
    def test_pinned_product_bytes(self, args):
        # json unless args name another format: the last --format wins
        done = run_cli(["verify", "--format", "json", *args.split(), "--no-timestamps"])
        assert done.returncode == EXIT_OK, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == self.PINNED[args]
