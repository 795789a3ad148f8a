import csv
import json
from pathlib import Path

import pytest

from rfidlab.cli import (
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_THRESHOLD,
    SEED_ENV,
    canonical_report_bytes,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(args):
    return main(args)


class TestTraceCommand:
    def test_writes_a_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            ["trace", "--protocol", "fwcfp", "--hash-bits", "8",
             "--trials", "300", "--seed", "42", "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "advantage-report"
        assert doc["trials_completed"] == 300
        assert doc["nominal_adv"] == 0.49609375
        assert "generated_at" in doc
        summary = capsys.readouterr().out
        assert "empirical_adv" in summary and "nominal_adv" in summary

    def test_csv_carries_the_same_numbers(self, tmp_path):
        json_out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        args = ["trace", "--protocol", "lwjx", "--hash-bits", "4",
                "--trials", "200", "--seed", "1"]
        assert run(args + ["--output", str(json_out)]) == EXIT_OK
        assert run(args + ["--output", str(csv_out), "--format", "csv"]) == EXIT_OK
        doc = json.loads(json_out.read_text())
        with open(csv_out) as handle:
            row = next(csv.DictReader(handle))
        for key in ("empirical_p", "empirical_adv", "ci95", "nominal_adv", "exact_adv"):
            assert float(row[key]) == doc[key]
        assert int(row["trials_completed"]) == doc["trials_completed"]

    def test_guess_modes_select_different_strategies(self, tmp_path):
        out = tmp_path / "r.json"
        run(["trace", "--protocol", "lwjx", "--hash-bits", "8", "--trials", "50",
             "--seed", "1", "--guess-mode", "key-hash", "--output", str(out)])
        assert json.loads(out.read_text())["strategy"] == "lwjx-trace-key"

    def test_tolerance_gate_fails_with_exit_2(self):
        code = run(["trace", "--protocol", "fwcfp", "--hash-bits", "8",
                    "--trials", "50", "--seed", "1", "--tolerance", "0.0"])
        assert code == EXIT_THRESHOLD

    def test_backtrace_command_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["backtrace", "--protocol", "fwcfp", "--hash-bits", "8",
                    "--trials", "200", "--seed", "2", "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["strategy"] == "fwcfp-backtrace"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "args",
        [
            ["backtrace", "--protocol", "lwjx", "--trials", "10"],
            ["desync", "--protocol", "lwjx"],
            ["trace", "--protocol", "fwcfp", "--guess-mode", "id-hash"],
            ["trace", "--protocol", "lwjx", "--id-bits", "32", "--key-bits", "64"],
            ["trace", "--protocol", "lwjx", "--rand0-bits", "16"],
            ["honest", "--protocol", "fwcfp", "--drop-flow3-rate", "0.5"],
            ["honest", "--trials", "0"],
            ["desync", "--protocol", "fwcfp", "--mask", "16:zz"],
            ["trace", "--hash-bits", "-4"],
            ["nonsense-command"],
        ],
    )
    def test_bad_configs_exit_1(self, args, capsys):
        assert run(args) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_env_var_overrides_default_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv(SEED_ENV, "555")
        run(["trace", "--trials", "20", "--hash-bits", "8", "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 555

    def test_explicit_seed_beats_the_env(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv(SEED_ENV, "555")
        run(["trace", "--trials", "20", "--hash-bits", "8",
             "--seed", "9", "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 9

    def test_default_seed_is_the_documented_constant(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.delenv(SEED_ENV, raising=False)
        run(["trace", "--trials", "20", "--hash-bits", "8", "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == DEFAULT_SEED


class TestHonestCommand:
    def test_fwcfp_honest_run(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["honest", "--protocol", "fwcfp", "--trials", "200",
                    "--seed", "3", "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["both_accepted"] == 200
        assert doc["alias_consistent"] == 200

    def test_lwjx_honest_with_losses_resyncs(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["honest", "--protocol", "lwjx", "--trials", "300",
                    "--drop-flow3-rate", "0.3", "--seed", "7", "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["reader_accepts"] == 300
        assert doc["case_c"] > 0
        assert doc["sync_violations"] == 0


class TestDesyncCommand:
    def test_attack_succeeds_and_reports(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["desync", "--protocol", "fwcfp", "--attempts", "100",
                    "--seed", "1", "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["tamper_accepted"] is True
        assert doc["rejects"] == 100
        assert doc["alias_shift_matches"] is True
        assert "rejects 100/100" in capsys.readouterr().out

    def test_explicit_mask_is_honored(self, tmp_path):
        out = tmp_path / "r.json"
        mask = "128:" + "0" * 31 + "1"
        code = run(["desync", "--attempts", "5", "--seed", "1",
                    "--mask", mask, "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["mask"] == mask


class TestReplayCommand:
    def test_fixture_passes(self, capsys):
        assert run(["replay", "--input", str(FIXTURES / "fwcfp_honest.jsonl")]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_corrupted_file_fails_with_exit_2(self, tmp_path, capsys):
        source = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()

        def flip_a(line):
            if '"flow": "flow3"' not in line:
                return line
            start = line.index('"a": "128:') + len('"a": "128:')
            digit = "0" if line[start] != "0" else "1"
            return line[:start] + digit + line[start + 1 :]

        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(flip_a(line) for line in source) + "\n")
        assert run(["replay", "--input", str(bad)]) == EXIT_THRESHOLD
        assert "A" in capsys.readouterr().out

    def test_missing_file_is_a_config_error(self):
        assert run(["replay", "--input", "/nonexistent/t.jsonl"]) == EXIT_CONFIG


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestMalformedInputs:
    """Malformed files end in exit 1 and one line on stderr, never a traceback."""

    def test_transcript_params_without_hash_bits(self, tmp_path, capsys):
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        del meta["params"]["hash_bits"]
        lines[0] = json.dumps(meta, sort_keys=True)
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert run(["replay", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def lwjx_snapshot(self, tmp_path):
        path = tmp_path / "db.json"
        assert run(["snapshot", "--protocol", "lwjx", "--tags", "2",
                    "--seed", "5", "--output", str(path)]) == EXIT_OK
        return path, json.loads(path.read_text())

    def test_snapshot_with_an_unknown_params_key(self, tmp_path, capsys):
        path, doc = self.lwjx_snapshot(tmp_path)
        doc["params"]["bogus"] = 3
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def test_snapshot_with_non_hex_digits(self, tmp_path, capsys):
        path, doc = self.lwjx_snapshot(tmp_path)
        record = doc["records"][0]
        record["id"] = record["id"][:3] + "zz" + record["id"][5:]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def test_snapshot_with_a_number_for_a_bit_string(self, tmp_path, capsys):
        path, doc = self.lwjx_snapshot(tmp_path)
        doc["records"][0]["id"] = 5
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("bad_line", ["[1, 2]", "5"])
    def test_transcript_line_that_is_not_an_object(self, tmp_path, capsys, bad_line):
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        lines[1] = bad_line
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert run(["replay", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def test_master_key_that_is_not_hex(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        run(["snapshot", "--protocol", "fwcfp", "--output", str(path), "--seed", "5"])
        capsys.readouterr()
        assert run(["snapshot", "--input", str(path), "--master-key", "xyz"]) == EXIT_CONFIG
        assert_one_error_line(capsys)


class TestSnapshotCommand:
    def test_write_and_verify_round_trip(self, tmp_path):
        path = tmp_path / "db.json"
        assert run(["snapshot", "--protocol", "lwjx", "--tags", "4",
                    "--seed", "5", "--output", str(path)]) == EXIT_OK
        assert json.loads(path.read_text())["protocol"] == "lwjx"
        assert run(["snapshot", "--input", str(path)]) == EXIT_OK

    def test_fwcfp_snapshot_redacts_by_default(self, tmp_path):
        path = tmp_path / "db.json"
        run(["snapshot", "--protocol", "fwcfp", "--output", str(path), "--seed", "5"])
        assert "master_key" not in json.loads(path.read_text())
        path2 = tmp_path / "db2.json"
        run(["snapshot", "--protocol", "fwcfp", "--output", str(path2),
             "--seed", "5", "--include-master-key"])
        assert "master_key" in json.loads(path2.read_text())


class TestReproducibility:
    def test_no_timestamp_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["trace", "--protocol", "fwcfp", "--hash-bits", "8",
                "--trials", "100", "--seed", "11", "--no-timestamp"]
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_default_runs_agree_modulo_the_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["trace", "--protocol", "fwcfp", "--hash-bits", "8",
                "--trials", "100", "--seed", "11"]
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        bytes_a = canonical_report_bytes(json.loads(a.read_text()))
        bytes_b = canonical_report_bytes(json.loads(b.read_text()))
        assert bytes_a == bytes_b
