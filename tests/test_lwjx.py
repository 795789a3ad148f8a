import pytest

from rfidlab.bits import BitString
from rfidlab.crypto import truncated_hash
from rfidlab.lwjx import (
    Flow1,
    Flow2,
    Flow3,
    LwjxParams,
    LwjxReaderDb,
    is_synchronized,
    run_honest_session,
)
from rfidlab.rng import Rng
from rfidlab.session import ProtocolError, RejectMessage
from rfidlab.snapshots import (
    SnapshotError,
    load_db,
    lwjx_db_from_doc,
    lwjx_db_to_doc,
    snapshot_db,
)


def hash_of(params, message: BitString) -> BitString:
    """The hash oracle over a BitString message, as a flow or record carries it."""
    return BitString(params.output_bits, truncated_hash(params, message.width, message.value))


def make_world(seed=1, **params):
    rng = Rng(seed)
    db = LwjxReaderDb(LwjxParams(**params))
    tag = db.provision(rng)
    return tag, db, rng


def record_state(rec):
    return (rec.id, rec.h_id_new, rec.h_id_old, rec.k_new, rec.k_old, rec.m)


class TestBeginAndRespond:
    def test_nonce_width_and_freshness(self):
        _, db, rng = make_world()
        _, f1a = db.begin(rng)
        _, f1b = db.begin(rng)
        assert f1a.rr.width == db.params.bits
        assert f1a.rr != f1b.rr

    def test_hid_matches_external_recomputation(self):
        tag, db, rng = make_world()
        flow2 = tag.respond(db.begin(rng)[1], rng)
        assert flow2.hid == hash_of(db.params.h, tag.id)
        assert flow2.hk.width == db.params.hash_bits

    def test_repeated_queries_without_finalize_expose_the_same_hid(self):
        # the tracing hook: an aborted session leaves the hashes in place
        tag, db, rng = make_world()
        first = tag.respond(db.begin(rng)[1], rng)
        second = tag.respond(db.begin(rng)[1], rng)
        assert first.hid == second.hid
        assert first.rt != second.rt

    def test_malformed_flow1_rejected(self):
        tag, _, rng = make_world()
        with pytest.raises(ProtocolError):
            tag.respond(Flow1(rng.bits(7)), rng)


class TestKeptIdentifierHash:
    """The tag's H(ID) follows its identifier through every change."""

    @staticmethod
    def assert_kept(tag):
        assert BitString(tag.params.hash_bits, tag._h_id) == hash_of(tag.params.h, tag.id)

    def test_after_accepted_and_dropped_sessions(self):
        tag, db, rng = make_world(bits=16, hash_bits=8)
        self.assert_kept(tag)
        for i in range(12):
            run_honest_session(tag, db, rng, drop_flow3=(i % 3 == 0))
            self.assert_kept(tag)

    def test_overwrite_rehashes_the_new_identifier(self):
        tag, _, rng = make_world()
        tag.id = rng.bits(tag.params.bits)
        self.assert_kept(tag)
        flow2 = tag.respond(Flow1(rng.bits(tag.params.bits)), rng)
        assert flow2.hid == hash_of(tag.params.h, tag.id)

    def test_refused_overwrite_keeps_the_identifier_and_its_hash(self):
        tag, _, rng = make_world()
        before = (tag._id, tag._h_id)
        with pytest.raises(ProtocolError):
            tag.id = rng.bits(tag.params.bits - 1)
        assert (tag._id, tag._h_id) == before


class TestAuthenticate:
    def test_synchronized_tag_takes_new_branch_and_rotates_epochs(self):
        tag, db, rng = make_world()
        rec = db.records[0]
        previous_h_new = rec.h_id_new
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        verdict, flow3 = db.authenticate(sid, flow2, rng)
        assert (verdict.ok, verdict.reason) == (True, "new-branch")
        assert rec.h_id_old == previous_h_new
        assert rec.h_id_new == hash_of(db.params.h, rec.id)
        assert rec.m == 0
        assert tag.finalize(flow3).ok

    def test_tag_that_missed_flow3_resyncs_via_old_branch(self):
        tag, db, rng = make_world()
        rec = db.records[0]
        run_honest_session(tag, db, rng, drop_flow3=True)
        result = run_honest_session(tag, db, rng)
        assert result.reader_verdict.reason == "old-branch"
        assert result.tag_verdict.ok
        assert rec.m == 1
        assert is_synchronized(db, tag)

    def test_old_branch_touches_only_m_and_the_new_key(self):
        tag, db, rng = make_world()
        rec = db.records[0]
        run_honest_session(tag, db, rng, drop_flow3=True)
        id_, h_new, h_old, k_old = rec.id, rec.h_id_new, rec.h_id_old, rec.k_old
        result = run_honest_session(tag, db, rng)
        assert result.reader_verdict.reason == "old-branch"
        assert (rec.id, rec.h_id_new, rec.h_id_old, rec.k_old) == (
            id_,
            h_new,
            h_old,
            k_old,
        )
        # the tag rebuilt its key from this session's nonces; the record followed
        assert rec.k_new == tag.k

    def test_session_after_old_branch_recovery_takes_new_branch(self):
        tag, db, rng = make_world()
        run_honest_session(tag, db, rng, drop_flow3=True)
        assert run_honest_session(tag, db, rng).reader_verdict.reason == "old-branch"
        third = run_honest_session(tag, db, rng)
        assert third.reader_verdict.reason == "new-branch"
        assert third.tag_verdict.ok
        assert db.records[0].m == 0

    def test_counter_limit_rejects_with_warning(self):
        tag, db, rng = make_world(m_limit=2)
        rec = db.records[0]
        run_honest_session(tag, db, rng, drop_flow3=True)  # tag falls behind
        reasons = []
        for _ in range(4):
            result = run_honest_session(tag, db, rng, drop_flow3=True)
            reasons.append(result.reader_verdict.reason)
        # entry check is strict: m > limit; increments happen before the key check
        assert reasons == ["old-branch", "old-branch", "old-branch", "warn-limit"]
        assert rec.m == 3

    def test_unknown_tag_rejected_with_no_match(self):
        tag, _, rng = make_world(seed=1)
        _, other_db, _ = make_world(seed=2)
        result = run_honest_session(tag, other_db, rng)
        assert result.reader_verdict.reason == "no-match"

    def test_wrong_key_rejected_with_bad_key_hash(self):
        tag, db, rng = make_world()
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        forged = type(flow2)(hid=flow2.hid, hk=rng.bits(db.params.hash_bits), rt=flow2.rt)
        verdict, reply = db.authenticate(sid, forged, rng)
        assert (verdict.ok, verdict.reason) == (False, "bad-key-hash")
        assert isinstance(reply, RejectMessage)


    def test_counter_burn_after_one_dropped_flow3_locks_the_tag_out(self):
        # M is bumped before the key hash is checked: once the tag lags, six
        # forged flow2 messages carrying its eavesdropped H(ID) push M past
        # m_limit=5, and the reader refuses every later honest session
        tag, db, rng = make_world(m_limit=5)
        dropped = run_honest_session(tag, db, rng, drop_flow3=True)
        hid = dropped.transcript.delivered("flow2")["hid"]
        assert db.records[0].h_id_old == hid
        for _ in range(6):
            sid, _ = db.begin(rng)
            hk = rng.bits(db.params.hash_bits)
            forged = Flow2(hid=hid, hk=hk, rt=rng.bits(db.params.bits))
            verdict, reply = db.authenticate(sid, forged, rng)
            assert (verdict.ok, verdict.reason) == (False, "bad-key-hash")
            assert isinstance(reply, RejectMessage)
        assert db.records[0].m == 6
        for _ in range(5):
            assert run_honest_session(tag, db, rng).reader_verdict.reason == "warn-limit"


class TestSessionTable:
    def test_accept_and_reject_both_close_the_session(self):
        tag, db, rng = make_world()
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        assert db.authenticate(sid, flow2, rng)[0].ok
        sid2, _ = db.begin(rng)
        assert not db.authenticate(sid2, flow2, rng)[0].ok  # stale key hash
        assert db.sessions == {}
        for closed in (sid, sid2):
            with pytest.raises(ProtocolError):
                db.authenticate(closed, flow2, rng)

    def test_malformed_flow2_leaves_the_session_open(self):
        tag, db, rng = make_world()
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        with pytest.raises(ProtocolError):
            db.authenticate(sid, Flow2(hid=flow2.hid, hk=flow2.hk, rt=rng.bits(7)), rng)
        assert sid in db.sessions
        assert db.authenticate(sid, flow2, rng)[0].ok

    def test_table_is_empty_after_honest_sessions(self):
        tag, db, rng = make_world()
        for i in range(50):
            run_honest_session(tag, db, rng, drop_flow3=(i % 4 == 0))
        assert db.sessions == {}


class TestIndexedRecords:
    def test_snapshot_round_trip_serves_both_epochs(self, tmp_path):
        rng = Rng(4)
        db = LwjxReaderDb(LwjxParams())
        lagging, current, fresh = (db.provision(rng) for _ in range(3))
        run_honest_session(current, db, rng)
        run_honest_session(lagging, db, rng, drop_flow3=True)
        run_honest_session(lagging, db, rng, drop_flow3=True)  # old branch, m = 1
        path = tmp_path / "db.json"
        snapshot_db(db, path)
        loaded = load_db(path)
        doc = lwjx_db_to_doc(loaded)
        assert doc == lwjx_db_to_doc(db)
        assert doc["records"][0]["m"] == 1
        assert doc["records"][0]["h_id_old"] is not None
        result = run_honest_session(lagging, loaded, rng)
        assert result.reader_verdict.reason == "old-branch"
        assert result.tag_verdict.ok
        for tag in (current, fresh, lagging):
            result = run_honest_session(tag, loaded, rng)
            assert result.reader_verdict.reason == "new-branch"
            assert result.both_accepted
            assert is_synchronized(loaded, tag)

    @pytest.mark.parametrize(
        "field, value",
        # three wrong widths, an old epoch with its hash but no key, then a
        # new-epoch hash of the right width that is not H(id)
        [("h_id_new", "8:00"), ("h_id_old", "8:00"), ("k_new", "8:00"), ("k_old", None),
         ("h_id_new", "96:" + "0" * 24)],
    )
    def test_malformed_snapshot_record_is_rejected(self, field, value):
        tag, db, rng = make_world()
        run_honest_session(tag, db, rng)
        doc = lwjx_db_to_doc(db)
        doc["records"][0][field] = value
        with pytest.raises(SnapshotError):
            lwjx_db_from_doc(doc)


class TestFinalize:
    def test_tag_key_equals_reader_new_key_after_honest_session(self):
        tag, db, rng = make_world()
        result = run_honest_session(tag, db, rng)
        assert result.both_accepted
        assert tag.k == db.records[0].k_new

    def test_corrupted_flow3_leaves_tag_unchanged(self):
        tag, db, rng = make_world()
        before = (tag.id, tag.k)
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        _, flow3 = db.authenticate(sid, flow2, rng)
        bad = Flow3(hkt=flow3.hkt ^ BitString(flow3.hkt.width, 1))
        verdict = tag.finalize(bad)
        assert (verdict.ok, verdict.reason) == (False, "bad-hkt")
        assert (tag.id, tag.k) == before


class TestHonestRuns:
    def test_three_sessions_all_accept_with_m_zero(self):
        tag, db, rng = make_world()
        for _ in range(3):
            result = run_honest_session(tag, db, rng)
            assert result.both_accepted
            assert result.reader_verdict.reason == "new-branch"
            assert db.records[0].m == 0

    def test_transcript_has_three_flows(self):
        tag, db, rng = make_world()
        result = run_honest_session(tag, db, rng)
        flows = ("flow1", "flow2", "flow3", "flow4")
        assert [e.flow for e in result.transcript.entries if e.flow in flows] == [
            "flow1",
            "flow2",
            "flow3",
        ]

    def test_hash_chain_invariant(self):
        tag, db, rng = make_world()
        rec = db.records[0]
        for i in range(20):
            run_honest_session(tag, db, rng, drop_flow3=(i % 3 == 0))
            assert rec.h_id_new == hash_of(db.params.h, rec.id)

    def test_sync_invariant_under_random_loss(self):
        # heavy loss can trip the counter limit and lock the record out, but
        # key material must never actually diverge: the only reject reason
        # ever seen is the warning, and the sync invariant holds throughout
        tag, db, rng = make_world()
        verdicts = []
        for _ in range(1000):
            drop = rng.random() < 0.4
            result = run_honest_session(tag, db, rng, drop_flow3=drop)
            verdicts.append(result.reader_verdict.reason)
            assert is_synchronized(db, tag)
        assert not {"no-match", "bad-key-hash"} & set(verdicts)
        first_warn = (
            verdicts.index("warn-limit") if "warn-limit" in verdicts else len(verdicts)
        )
        assert all(v in ("new-branch", "old-branch") for v in verdicts[:first_warn])

    def test_aborted_session_leaves_tag_bitwise_identical(self):
        tag, db, rng = make_world()
        before = (tag.id, tag.k)
        tag.respond(db.begin(rng)[1], rng)  # no flow3 ever arrives
        assert (tag.id, tag.k) == before


class TestWidths:
    def test_narrow_hash_wide_values(self):
        tag, db, rng = make_world(bits=96, hash_bits=8)
        result = run_honest_session(tag, db, rng)
        assert result.both_accepted
        flow2 = result.transcript.delivered("flow2")
        assert flow2["hid"].width == 8
        assert flow2["rt"].width == 96

    def test_value_width_is_shared(self):
        with pytest.raises(ValueError):
            LwjxParams(bits=0)
