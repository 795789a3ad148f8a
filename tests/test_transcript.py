import importlib.util
import json
from pathlib import Path

import pytest

from rfidlab import fwcfp, lwjx
from rfidlab.bits import BitString
from rfidlab.replay import replay_file, verify_transcript
from rfidlab.rng import Rng
from rfidlab.snapshots import (
    SnapshotError,
    fwcfp_db_from_doc,
    fwcfp_db_to_doc,
    load_db,
    lwjx_db_from_doc,
    lwjx_db_to_doc,
    snapshot_db,
)
from rfidlab.transcript import (
    Transcript,
    read_jsonl,
    transcript_to_lines,
    write_jsonl,
)

FIXTURES = Path(__file__).parent / "fixtures"
GENERATOR = Path(__file__).parent.parent / "scripts" / "generate_fixtures.py"


def fwcfp_disclosed_session(seed=5):
    rng = Rng(seed)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    return fwcfp.run_honest_session(tag, db, rng, disclose_secrets=True)


def lwjx_disclosed_session(seed=5):
    rng = Rng(seed)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    tag = db.provision(rng)
    return lwjx.run_honest_session(tag, db, rng, disclose_secrets=True)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        result = fwcfp_disclosed_session()
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [result.transcript])
        (loaded,) = read_jsonl(path)
        assert loaded.session == result.transcript.session
        assert loaded.secrets == result.transcript.secrets
        assert [e.flow for e in loaded.entries] == [
            e.flow for e in result.transcript.entries
        ]
        assert loaded.delivered("flow3") == result.transcript.delivered("flow3")

    def test_fields_use_canonical_text(self):
        result = fwcfp_disclosed_session()
        lines = transcript_to_lines(result.transcript)
        doc = json.loads(lines[1])
        assert doc["type"] == "entry"
        parsed = BitString.parse(doc["fields"]["rand1"])
        assert parsed == result.transcript.delivered("flow1")["rand1"]

    def test_game_transcripts_have_no_secrets_line(self):
        rng = Rng(1)
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        tag = db.provision_tag(rng)
        result = fwcfp.run_honest_session(tag, db, rng)
        meta = json.loads(transcript_to_lines(result.transcript)[0])
        assert "secrets" not in meta

    def test_delivered_prefers_the_tampered_copy(self):
        t = Transcript(session="s", protocol="fwcfp", params={})
        t.add("flow1", "reader", {"rand1": BitString(8, 1)})
        t.add("flow1", "adversary", {"rand1": BitString(8, 2)}, note="tampered")
        assert t.delivered("flow1")["rand1"] == BitString(8, 2)

    def test_delivered_sees_blocks(self):
        t = Transcript(session="s", protocol="fwcfp", params={})
        t.add("flow3", "reader", {"h2": BitString(8, 1)})
        t.add("flow3", "adversary", {}, note="blocked")
        assert t.delivered("flow3") is None


class TestReplay:
    def test_fresh_honest_fwcfp_transcript_passes(self, tmp_path):
        result = fwcfp_disclosed_session()
        path = tmp_path / "ok.jsonl"
        write_jsonl(path, [result.transcript])
        report = replay_file(path)
        assert report.ok, report.describe()
        assert report.checked >= 5

    def test_fresh_honest_lwjx_transcript_passes(self, tmp_path):
        result = lwjx_disclosed_session()
        path = tmp_path / "ok.jsonl"
        write_jsonl(path, [result.transcript])
        report = replay_file(path)
        assert report.ok, report.describe()

    def test_flipped_bit_in_a_is_caught_and_named(self, tmp_path):
        result = fwcfp_disclosed_session()
        t = result.transcript
        for entry in t.entries:
            if entry.flow == "flow3":
                entry.fields["a"] = entry.fields["a"] ^ BitString(
                    entry.fields["a"].width, 1
                )
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [t])
        report = replay_file(path)
        assert not report.ok
        assert [issue.field for issue in report.issues] == ["A"]

    def test_malformed_line_reports_its_number(self, tmp_path):
        result = fwcfp_disclosed_session()
        path = tmp_path / "broken.jsonl"
        lines = transcript_to_lines(result.transcript)
        lines[2] = lines[2][:-5]  # truncate mid-object
        path.write_text("\n".join(lines) + "\n")
        report = replay_file(path)
        assert not report.ok
        assert report.issues[0].field == "format"
        assert report.issues[0].line == 3

    def test_undisclosed_transcript_cannot_replay(self):
        rng = Rng(1)
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
        tag = db.provision(rng)
        result = lwjx.run_honest_session(tag, db, rng)
        report = verify_transcript(result.transcript)
        assert not report.ok
        assert report.issues[0].field == "secrets"

    def test_golden_fwcfp_fixture_replays(self):
        report = replay_file(FIXTURES / "fwcfp_honest.jsonl")
        assert report.ok, report.describe()

    def test_golden_lwjx_fixture_replays(self):
        report = replay_file(FIXTURES / "lwjx_honest.jsonl")
        assert report.ok, report.describe()

    @pytest.mark.parametrize("protocol", ["fwcfp", "lwjx"])
    def test_generator_reproduces_the_golden_fixture_bytes(self, protocol, tmp_path):
        spec = importlib.util.spec_from_file_location("generate_fixtures", GENERATOR)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        path = tmp_path / f"{protocol}_honest.jsonl"
        write_jsonl(path, getattr(generator, f"{protocol}_fixture")())
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes()


class TestSnapshots:
    def make_fwcfp_db(self, seed=9):
        rng = Rng(seed)
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        for _ in range(3):
            db.provision_tag(rng)
        return db, rng

    def make_lwjx_db(self, seed=9):
        rng = Rng(seed)
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
        tags = [db.provision(rng) for _ in range(3)]
        return db, tags, rng

    def test_fwcfp_round_trip_with_master_key(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        loaded = fwcfp_db_from_doc(doc)
        assert fwcfp_db_to_doc(loaded, include_master_key=True) == doc

    def test_fwcfp_snapshot_redacts_the_master_key_by_default(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db)
        assert "master_key" not in doc
        with pytest.raises(SnapshotError):
            fwcfp_db_from_doc(doc)
        loaded = fwcfp_db_from_doc(doc, master_key=db.ks.key)
        assert loaded.ks == db.ks

    def test_lwjx_round_trip_preserves_epochs_and_counter(self):
        db, tags, rng = self.make_lwjx_db()
        lwjx.run_honest_session(tags[0], db, rng)
        lwjx.run_honest_session(tags[1], db, rng, drop_flow3=True)
        lwjx.run_honest_session(tags[1], db, rng)  # old-branch: m = 1
        doc = lwjx_db_to_doc(db)
        assert doc["records"][1]["m"] == 1
        assert lwjx_db_to_doc(lwjx_db_from_doc(doc)) == doc

    def test_new_branch_session_touches_exactly_the_five_epoch_fields(self):
        db, tags, rng = self.make_lwjx_db()
        before = lwjx_db_to_doc(db)["records"][0]
        lwjx.run_honest_session(tags[0], db, rng)
        after = lwjx_db_to_doc(db)["records"][0]
        changed = {k for k in before if before[k] != after[k]}
        assert changed == {"id", "h_id_new", "h_id_old", "k_new", "k_old"}

    def test_file_round_trip(self, tmp_path):
        db, tags, rng = self.make_lwjx_db()
        path = tmp_path / "db.json"
        snapshot_db(db, path)
        loaded = load_db(path)
        assert lwjx_db_to_doc(loaded) == lwjx_db_to_doc(db)

    def test_fwcfp_file_round_trip_with_key(self, tmp_path):
        db, _ = self.make_fwcfp_db()
        path = tmp_path / "db.json"
        snapshot_db(db, path, include_master_key=True)
        loaded = load_db(path)
        assert fwcfp_db_to_doc(loaded, True) == fwcfp_db_to_doc(db, True)

    def test_schema_version_is_checked(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        doc["schema"] = 99
        with pytest.raises(SnapshotError):
            fwcfp_db_from_doc(doc)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError):
            load_db(path)
