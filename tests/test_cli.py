import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rfidlab
from rfidlab.cli import (
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_THRESHOLD,
    SEED_ENV,
    canonical_report_bytes,
    main,
)
from rfidlab.replay import replay_file
from rfidlab.snapshots import SnapshotError, load_db
from rfidlab.transcript import TranscriptFormatError, read_jsonl

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
            ["honest", "--protocol", "fwcfp", "--drop-flow3-rate", "0"],
            ["honest", "--trials", "0"],
            ["desync", "--protocol", "fwcfp", "--mask", "16:zz"],
            ["trace", "--hash-bits", "-4"],
            ["nonsense-command"],
            # out-of-range values that once crashed, were coerced or were echoed
            ["trace", "--protocol", "lwjx", "--m-limit", "-1"],
            ["snapshot", "--protocol", "fwcfp", "--hash-bits", "-4", "--output", "{tmp}"],
            ["snapshot", "--protocol", "lwjx", "--hash-bits", "0", "--output", "{tmp}"],
            ["snapshot", "--protocol", "lwjx", "--rand0-bits", "8", "--output", "{tmp}"],
            ["snapshot", "--tags", "-2", "--output", "{tmp}"],
            ["trace", "--workers", "0"],
            ["desync", "--attempts", "-5"],
            # flags a command does not honour
            ["honest", "--workers", "2"],
            ["desync", "--workers", "2"],
            ["snapshot", "--workers", "2", "--output", "{tmp}"],
            ["desync", "--trials", "5"],
            ["snapshot", "--trials", "5", "--output", "{tmp}"],
            ["honest", "--protocol", "fwcfp", "--m-limit", "3"],
            ["trace", "--protocol", "fwcfp", "--m-limit", "3"],
            ["snapshot", "--protocol", "fwcfp", "--m-limit", "3", "--output", "{tmp}"],
            ["desync", "--m-limit", "3"],
            ["backtrace", "--m-limit", "3"],
            ["snapshot", "--format", "csv", "--output", "{tmp}"],
            ["snapshot", "--no-timestamp", "--output", "{tmp}"],
            ["replay", "--input", str(FIXTURES / "fwcfp_honest.jsonl"), "--seed", "3"],
            # snapshot flags that went unhonoured: writing flags on --input,
            # a master key that no load needs, a master key to include for
            # LWJX or without an output
            ["snapshot", "--input", "{lwjx}", "--protocol", "lwjx"],
            ["snapshot", "--input", "{lwjx}", "--seed", "4"],
            ["snapshot", "--input", "{lwjx}", "--tags", "9"],
            ["snapshot", "--input", "{lwjx}", "--m-limit", "3"],
            ["snapshot", "--input", "{lwjx}", "--hash-bits", "8"],
            ["snapshot", "--input", "{fwcfp}", "--rand0-bits", "8"],
            ["snapshot", "--input", "{lwjx}", "--tags", "9", "--seed", "4",
             "--hash-bits", "8", "--protocol", "fwcfp"],
            ["snapshot", "--input", "{fwcfp}", "--include-master-key"],
            ["snapshot", "--input", "{lwjx}", "--include-master-key", "--output", "{tmp}"],
            ["snapshot", "--protocol", "fwcfp", "--master-key", "00ff", "--output", "{tmp}"],
            ["snapshot", "--input", "{lwjx}", "--master-key", "00ff"],
            ["snapshot", "--input", "{fwcfp}", "--master-key", "00ff", "--output", "{tmp}"],
            ["snapshot", "--protocol", "lwjx", "--include-master-key", "--output", "{tmp}"],
            # a tolerance that no result can meet, or that compares false
            ["trace", "--tolerance", "-1"],
            ["trace", "--tolerance", "nan"],
            ["backtrace", "--tolerance", "-1"],
            ["backtrace", "--tolerance", "nan"],
            # an odd alias width, which the alias cipher cannot split evenly
            ["trace", "--id-bits", "95"],
            ["honest", "--rand0-bits", "31"],
            ["snapshot", "--protocol", "fwcfp", "--id-bits", "1", "--output", "{tmp}"],
            # more tags than 2-bit IDTs can keep distinct
            ["snapshot", "--protocol", "fwcfp", "--id-bits", "2", "--rand0-bits", "2",
             "--tags", "9", "--output", "{tmp}"],
            # a seed that Rng's 64 bits would alias to another
            ["trace", "--seed", "-1"],
            ["honest", "--seed", "18446744073709551616"],
        ],
    )
    def test_bad_configs_exit_1(self, args, capsys, tmp_path):
        target = tmp_path / "out.json"
        paths = {"{tmp}": str(target)}
        for protocol, extra in (("fwcfp", ["--include-master-key"]), ("lwjx", [])):
            if "{%s}" % protocol in args:
                path = tmp_path / f"{protocol}.json"
                assert run(["snapshot", "--protocol", protocol, "--output", str(path)]
                           + extra) == EXIT_OK
                paths["{%s}" % protocol] = str(path)
        capsys.readouterr()
        assert run([paths.get(a, a) for a in args]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("command", ["honest", "desync", "trace", "backtrace", "snapshot"])
    def test_help_lists_only_honoured_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert ("--workers" in flags) == (command in ("trace", "backtrace"))
        assert ("--trials" in flags) == (command in ("honest", "trace", "backtrace"))
        assert ("--m-limit" in flags) == (command in ("honest", "trace", "snapshot"))
        assert ("--no-timestamp" in flags) == (command != "snapshot")

    def test_lwjx_snapshot_honours_every_width_flag(self, tmp_path):
        path = tmp_path / "db.json"
        assert run(["snapshot", "--protocol", "lwjx", "--key-bits", "16",
                    "--output", str(path)]) == EXIT_OK
        assert json.loads(path.read_text())["params"]["bits"] == 16

    def test_env_var_overrides_default_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv(SEED_ENV, "555")
        run(["trace", "--trials", "20", "--hash-bits", "8", "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 555

    @pytest.mark.parametrize("value", ["-1", "0x10000000000000000"])
    def test_env_seed_outside_64_bits_exits_1(self, value, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        monkeypatch.setenv(SEED_ENV, value)
        assert run(["trace", "--trials", "20", "--hash-bits", "8",
                    "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and SEED_ENV in err
        assert not out.exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["trace", "--trials", "20", "--hash-bits", "8",
                    "--seed", str(2**64 - 1), "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 2**64 - 1

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

    def test_a_negative_zero_drop_rate_writes_the_report_without_the_flag(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["honest", "--protocol", "lwjx", "--trials", "50", "--seed", "7", "--no-timestamp"]
        assert run(args + ["--output", str(a)]) == EXIT_OK
        assert run(args + ["--drop-flow3-rate", "-0.0", "--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


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

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ('{"hkt": ', '{"extra": "ok", "hkt": ', "flow3.extra: not a field of this flow"),
            # an entry of a flow LWJX does not have, after s0's flow3
            ('"flow": "flow3", "sender": "reader", "session": "s0", "type": "entry"}\n',
             '"flow": "flow3", "sender": "reader", "session": "s0", "type": "entry"}\n'
             '{"fields": {"ok": true, "x": "8:ff"}, "flow": "flow4", "sender": "tag",'
             ' "session": "s0", "type": "entry"}\n',
             "flow4: not a flow of this protocol"),
            ('"secrets": {', '"secrets": {"extra": "8:ff", ',
             "secrets.extra: not a secret of this protocol"),
        ],
        ids=["field", "flow", "secret"],
    )
    def test_a_field_the_flow_does_not_have_fails_with_exit_2(
        self, tmp_path, capsys, old, new, problem
    ):
        source = (FIXTURES / "lwjx_honest.jsonl").read_text()
        assert old in source
        bad = tmp_path / "bad.jsonl"
        bad.write_text(source.replace(old, new, 1))
        assert run(["replay", "--input", str(bad)]) == EXIT_THRESHOLD
        assert f"  {problem}\n" in capsys.readouterr().out

    def test_an_unknown_protocol_fails_each_transcript_with_exit_2(self, tmp_path, capsys):
        source = (FIXTURES / "fwcfp_honest.jsonl").read_text()
        bad = tmp_path / "nfc.jsonl"
        bad.write_text(source.replace('"protocol": "fwcfp"', '"protocol": "nfc"'))
        assert run(["replay", "--input", str(bad)]) == EXIT_THRESHOLD
        assert capsys.readouterr().out == (
            "fail: 2 problem(s), 0 fields checked\n"
            + "  protocol: unknown protocol 'nfc'\n" * 2
        )

    def test_missing_file_is_a_config_error(self):
        assert run(["replay", "--input", "/nonexistent/t.jsonl"]) == EXIT_CONFIG


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


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

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4"])
    def test_transcript_params_lacking_several_names_them_sorted(self, tmp_path, hash_seed):
        # the missing names are a set, whose order follows the string hash
        # seed: each seed runs in its own interpreter
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        meta["params"] = {"id_bits": 96}
        lines[0] = json.dumps(meta, sort_keys=True)
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        src = Path(rfidlab.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-m", "rfidlab.cli", "replay", "--input", str(path)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == EXIT_CONFIG
        assert out.stderr == (
            "error: session s0: params lack hash_bits, key_bits, nonce_bits, rand0_bits\n"
        )

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

    def test_snapshot_with_a_new_epoch_hash_that_is_not_h_of_the_id(self, tmp_path, capsys):
        # H(8:01) is 8:0b at these widths: a reader loaded from this record
        # would answer its tag no-match
        path = tmp_path / "db.json"
        path.write_text(json.dumps({
            "schema": 1, "protocol": "lwjx",
            "params": {"bits": 8, "hash_bits": 8, "m_limit": 5},
            "records": [{"id": "8:01", "h_id_new": "8:00", "h_id_old": None,
                         "k_new": "8:00", "k_old": None, "m": 0}],
        }))
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
        assert assert_one_error_line(capsys) == "error: record 0: h_id_new 8:00 is not H(id)\n"

    @pytest.mark.parametrize(
        "line_number, key, value",
        [(2, "flow", 5), (2, "sender", []), (2, "note", {}), (2, "note", None),
         (2, "session", "zzz"), (9, "session", "s0"), (2, "session", None),
         (1, "schema", True), (1, "schema", 1.0)],
        ids=["flow-number", "sender-array", "note-object", "note-null",
             "session-unknown", "session-of-another-transcript", "session-null",
             "schema-true", "schema-float"],
    )
    def test_transcript_value_of_the_wrong_type(
        self, tmp_path, capsys, line_number, key, value
    ):
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        doc = json.loads(lines[line_number - 1])
        doc[key] = value
        lines[line_number - 1] = json.dumps(doc)
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert run(["replay", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_snapshot_schema_that_is_not_the_int_1(self, tmp_path, capsys, schema):
        path, doc = self.lwjx_snapshot(tmp_path)
        doc["schema"] = schema
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

    @pytest.mark.parametrize("value", [{}, "", 0, None], ids=["object", "string", "zero", "null"])
    @pytest.mark.parametrize("protocol, key", [("fwcfp", "registry"), ("lwjx", "records")])
    def test_snapshot_entries_that_are_not_an_array(self, tmp_path, capsys, protocol, key, value):
        path = tmp_path / "db.json"
        keyed = ["--include-master-key"] if protocol == "fwcfp" else []
        assert run(["snapshot", "--protocol", protocol, "--tags", "2",
                    "--output", str(path)] + keyed) == EXIT_OK
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
        assert f"{key} must be an array" in assert_one_error_line(capsys)
        with pytest.raises(SnapshotError, match=key):
            load_db(path)

    def test_snapshot_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        path.write_bytes(b'\xff\xfe{"schema": 1}')
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def test_transcript_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'\xff\xfe{"type": "meta", "schema": 1}\n')
        assert run(["replay", "--input", str(path)]) == EXIT_CONFIG
        assert_one_error_line(capsys)
        with pytest.raises(TranscriptFormatError, match="not UTF-8 text") as caught:
            list(read_jsonl(path))
        assert caught.value.line_number == 1
        report = replay_file(path)
        assert not report.ok
        assert [(i.field, i.line) for i in report.issues] == [("format", 1)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_transcript_that_is_not_utf8_names_the_line_of_the_bad_bytes(
        self, tmp_path, capsys, newline
    ):
        # the text decoder reads ahead, past the line it hands out
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        assert len(lines) == 14
        path = tmp_path / "t.jsonl"
        path.write_bytes(newline.join(lines + [""]).encode() + b"\xff\xfe")
        assert run(["replay", "--input", str(path)]) == EXIT_CONFIG
        assert "line 15: not UTF-8 text" in assert_one_error_line(capsys)
        with pytest.raises(TranscriptFormatError, match="not UTF-8 text") as caught:
            list(read_jsonl(path))
        assert caught.value.line_number == 15
        # a bad byte inside a line: that line, not the next
        lines[4] = lines[4][:10] + "\udcff" + lines[4][10:]
        path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(TranscriptFormatError, match="not UTF-8 text") as caught:
            list(read_jsonl(path))
        assert caught.value.line_number == 5

    def test_lwjx_snapshot_that_carries_a_master_key(self, tmp_path, capsys):
        path, doc = self.lwjx_snapshot(tmp_path)
        doc["master_key"] = "00" * 16
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["snapshot", "--input", str(path)]) == EXIT_CONFIG
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

    def test_input_rewritten_with_the_master_key(self, tmp_path):
        keyed = tmp_path / "keyed.json"
        run(["snapshot", "--protocol", "fwcfp", "--output", str(keyed),
             "--seed", "5", "--include-master-key"])
        redacted = tmp_path / "redacted.json"
        assert run(["snapshot", "--input", str(keyed), "--output", str(redacted)]) == EXIT_OK
        assert "master_key" not in json.loads(redacted.read_text())
        key = json.loads(keyed.read_text())["master_key"]
        again = tmp_path / "again.json"
        assert run(["snapshot", "--input", str(redacted), "--master-key", key,
                    "--include-master-key", "--output", str(again)]) == EXIT_OK
        assert again.read_bytes() == keyed.read_bytes()

    @pytest.mark.parametrize("protocol", ["fwcfp", "lwjx"])
    def test_input_is_parsed_once(self, tmp_path, monkeypatch, protocol):
        path = tmp_path / "db.json"
        keyed = ["--include-master-key"] if protocol == "fwcfp" else []
        assert run(["snapshot", "--protocol", protocol, "--output", str(path)] + keyed) == EXIT_OK
        parses = []
        load = json.load
        monkeypatch.setattr(json, "load", lambda *a, **kw: parses.append(a) or load(*a, **kw))
        assert run(["snapshot", "--input", str(path)]) == EXIT_OK
        assert len(parses) == 1


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
