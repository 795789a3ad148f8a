import pytest

from rfidlab.bits import BitString
from rfidlab.crypto import PermKey, expand_mask, permute, truncated_hash
from rfidlab.fwcfp import (
    Flow1,
    Flow2,
    Flow3,
    FwcfpParams,
    FwcfpReaderDb,
    alias_identity,
    run_honest_session,
)
from rfidlab.rng import Rng
from rfidlab.session import ProtocolError, RejectMessage

from bit_helpers import concat


def hash_of(params, message: BitString) -> BitString:
    """The hash oracle over a BitString message, as a flow carries it."""
    return BitString(params.output_bits, truncated_hash(params, message.width, message.value))


def mask_of(params, message: BitString, width: int) -> BitString:
    """The mask over a BitString message, as a BitString of the given width."""
    return BitString(width, expand_mask(params, message.width, message.value, width))


def make_world(seed=1, **params):
    rng = Rng(seed)
    db = FwcfpReaderDb.create(FwcfpParams(**params), rng)
    tag = db.provision_tag(rng)
    return tag, db, rng


class TestReaderBegin:
    def test_two_calls_yield_distinct_nonces(self):
        _, db, rng = make_world(seed=7)
        _, f1a = db.begin(rng)
        _, f1b = db.begin(rng)
        assert f1a.rand1 != f1b.rand1

    def test_width_contract(self):
        _, db, rng = make_world()
        _, f1 = db.begin(rng)
        assert f1.rand1.width == db.params.nonce_bits

    def test_seeded_reproducibility(self):
        def first_nonce():
            _, db, rng = make_world(seed=123)
            return db.begin(rng)[1].rand1

        assert first_nonce() == first_nonce()


class TestTagRespond:
    def test_alias_passes_through_unchanged(self):
        tag, db, rng = make_world()
        stored = tag.idta
        flow2 = tag.respond(db.begin(rng)[1], rng)
        assert flow2.idta == stored
        assert tag.idta == stored

    def test_h1_matches_external_recomputation(self):
        tag, db, rng = make_world()
        _, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        expected = hash_of(db.params.hash, concat(tag.k, f1.rand1))
        assert flow2.h1 == expected

    def test_distinct_challenges_distinct_h1(self):
        tag, db, rng = make_world(hash_bits=64)
        seen = set()
        for _ in range(1000):
            flow2 = tag.respond(Flow1(rng.bits(db.params.nonce_bits)), rng)
            seen.add(flow2.h1)
        assert len(seen) == 1000

    def test_malformed_flow1_rejected(self):
        tag, _, rng = make_world()
        with pytest.raises(ProtocolError):
            tag.respond(Flow1(rng.bits(8)), rng)


class TestReaderAuthenticate:
    def test_honest_flow2_masks_cancel_in_a_xor_b(self):
        tag, db, rng = make_world()
        p = db.params
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        verdict, flow3 = db.authenticate(sid, flow2, rng)
        assert verdict.ok
        mask1 = mask_of(p.hash, concat(tag.k, f1.rand1, flow2.rand2), p.alias_bits)
        mask2 = mask_of(p.hash, concat(tag.k, flow2.rand2, f1.rand1), p.alias_bits)
        assert flow3.a ^ flow3.b == mask1 ^ mask2

    def test_random_h1_rejected_with_bad_h1(self):
        # at hash_bits=8 a uniform h1 sneaks through with chance 2^-8
        tag, db, rng = make_world(hash_bits=8)
        rejects = 0
        for _ in range(400):
            sid, f1 = db.begin(rng)
            flow2 = tag.respond(f1, rng)
            forged = Flow2(idta=flow2.idta, h1=rng.bits(8), rand2=flow2.rand2)
            verdict, reply = db.authenticate(sid, forged, rng)
            if not verdict.ok:
                assert verdict.reason == "bad-h1"
                assert isinstance(reply, RejectMessage)
                rejects += 1
        assert rejects >= 390

    def test_unregistered_alias_rejected_with_unknown_idt(self):
        tag, db, rng = make_world()
        block = concat(rng.bits(db.params.alias_bits - 32), rng.bits(32))
        foreign = BitString(block.width, permute(db.ks, block.value))
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        forged = Flow2(idta=foreign, h1=flow2.h1, rand2=flow2.rand2)
        verdict, _ = db.authenticate(sid, forged, rng)
        assert (verdict.ok, verdict.reason) == (False, "unknown-idt")

    def test_wire_reject_is_uniform(self):
        tag, db, rng = make_world(hash_bits=16)
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        _, r1 = db.authenticate(sid, Flow2(flow2.idta, rng.bits(16), flow2.rand2), rng)
        sid2, f1b = db.begin(rng)
        flow2b = tag.respond(f1b, rng)
        bogus = BitString(db.params.alias_bits, permute(db.ks, rng.uint(db.params.alias_bits)))
        _, r2 = db.authenticate(sid2, Flow2(bogus, flow2b.h1, flow2b.rand2), rng)
        assert r1 == r2 == RejectMessage()


class TestTagFinalize:
    def complete_flow3(self, tag, db, rng):
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        return db.authenticate(sid, flow2, rng)

    def test_honest_flow3_rotates_alias_to_same_identity(self):
        tag, db, rng = make_world()
        before = tag.idta
        _, flow3 = self.complete_flow3(tag, db, rng)
        verdict, flow4 = tag.finalize(flow3)
        assert verdict.ok and flow4.ok
        assert tag.idta != before
        assert alias_identity(db, tag) == tag.bookkeeping_idt

    def test_corrupted_h2_rejected_without_mutation(self):
        tag, db, rng = make_world()
        before = tag.idta
        _, flow3 = self.complete_flow3(tag, db, rng)
        bad = Flow3(h2=flow3.h2 ^ BitString(flow3.h2.width, 1), a=flow3.a, b=flow3.b)
        verdict, reply = tag.finalize(bad)
        assert (verdict.ok, verdict.reason) == (False, "bad-h2")
        assert isinstance(reply, RejectMessage)
        assert tag.idta == before

    def test_corrupting_only_a_gives_alias_mismatch(self):
        tag, db, rng = make_world()
        before = tag.idta
        _, flow3 = self.complete_flow3(tag, db, rng)
        bad = Flow3(h2=flow3.h2, a=flow3.a ^ BitString(flow3.a.width, 1), b=flow3.b)
        verdict, _ = tag.finalize(bad)
        assert (verdict.ok, verdict.reason) == (False, "alias-mismatch")
        assert tag.idta == before

    def test_mask_recovery_identity_is_exact(self):
        # the accepted alias equals the alias the reader issued, bit for bit
        tag, db, rng = make_world()
        reader_verdict, flow3 = self.complete_flow3(tag, db, rng)
        verdict, _ = tag.finalize(flow3)
        assert verdict.ok
        assert tag.idta == reader_verdict.issued


class TestSessionTable:
    def test_honest_and_rejected_sessions_all_close(self):
        tag, db, rng = make_world()
        assert run_honest_session(tag, db, rng).both_accepted

        def bad_h1(flow, message):
            if flow == "flow2":
                return Flow2(idta=message.idta, h1=message.h1 ^ BitString(96, 1),
                             rand2=message.rand2)
            return message

        reader_reject = run_honest_session(tag, db, rng, interpose=bad_h1)
        assert reader_reject.reader_verdict.reason == "bad-h1"

        def bad_h2(flow, message):
            if flow == "flow3":
                return Flow3(h2=message.h2 ^ BitString(96, 1), a=message.a, b=message.b)
            return message

        tag_reject = run_honest_session(tag, db, rng, interpose=bad_h2)
        assert tag_reject.reader_verdict.ok
        assert tag_reject.tag_verdict.reason == "bad-h2"
        assert db.sessions == {}

    def test_a_closed_session_cannot_be_judged_again(self):
        tag, db, rng = make_world()
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        assert db.authenticate(sid, flow2, rng)[0].ok
        with pytest.raises(ProtocolError):
            db.authenticate(sid, flow2, rng)

    def test_malformed_flow2_leaves_the_session_open(self):
        tag, db, rng = make_world()
        sid, f1 = db.begin(rng)
        flow2 = tag.respond(f1, rng)
        with pytest.raises(ProtocolError):
            db.authenticate(sid, Flow2(idta=flow2.idta, h1=flow2.h1, rand2=rng.bits(7)), rng)
        assert sid in db.sessions
        assert db.authenticate(sid, flow2, rng)[0].ok
        assert db.sessions == {}


class TestHonestSession:
    def test_both_accept_for_any_seed(self):
        for seed in (1, 2, 3, 99):
            tag, db, rng = make_world(seed=seed)
            result = run_honest_session(tag, db, rng)
            assert result.both_accepted

    def test_two_consecutive_sessions_keep_working(self):
        tag, db, rng = make_world()
        assert run_honest_session(tag, db, rng).both_accepted
        assert run_honest_session(tag, db, rng).both_accepted

    def test_unregistered_tag_rejected(self):
        tag, db, rng = make_world()
        other_db = FwcfpReaderDb(db.params, db.ks)  # same key, empty registry
        result = run_honest_session(tag, other_db, rng)
        assert result.reader_verdict.reason == "unknown-idt"
        assert result.tag_verdict is None

    def test_golden_trace_matches_straight_line_reference(self):
        # replay the identical randomness and recompute every wire field
        # with primitive calls only
        params = FwcfpParams()
        rng = Rng(2024)
        db = FwcfpReaderDb.create(params, rng)
        tag = db.provision_tag(rng)
        k, idt, alias0 = tag.k, tag.bookkeeping_idt, tag.idta

        ref = Rng(2024)
        ref_ks = PermKey(ref.bytes(16), params.alias_bits)
        ref_idt = ref.bits(params.id_bits)
        ref_k = ref.bits(params.key_bits)
        ref_alias0 = BitString(
            params.alias_bits, permute(ref_ks, concat(ref_idt, ref.bits(params.rand0_bits)).value)
        )
        assert (ref_idt, ref_k, ref_alias0) == (idt, k, alias0)

        result = run_honest_session(tag, db, rng)
        rand1 = ref.bits(params.nonce_bits)
        rand2 = ref.bits(params.nonce_bits)
        alias1 = BitString(
            params.alias_bits, permute(ref_ks, concat(ref_idt, ref.bits(params.rand0_bits)).value)
        )
        mask1 = mask_of(params.hash, concat(ref_k, rand1, rand2), params.alias_bits)
        mask2 = mask_of(params.hash, concat(ref_k, rand2, rand1), params.alias_bits)
        expected = {
            "flow1": {"rand1": rand1},
            "flow2": {
                "idta": ref_alias0,
                "h1": hash_of(params.hash, concat(ref_k, rand1)),
                "rand2": rand2,
            },
            "flow3": {
                "h2": hash_of(params.hash, concat(ref_k, rand2)),
                "a": alias1 ^ mask1,
                "b": alias1 ^ mask2,
            },
            "flow4": {"ok": True},
        }
        for flow, fields in expected.items():
            assert result.transcript.delivered(flow) == fields, flow
        assert tag.idta == alias1

    def test_alias_consistency_over_many_sessions(self):
        tag, db, rng = make_world()
        for _ in range(50):
            assert run_honest_session(tag, db, rng).both_accepted
            assert alias_identity(db, tag) == tag.bookkeeping_idt

    def test_dropping_flow4_never_breaks_future_sessions(self):
        tag, db, rng = make_world()

        def lose_final(flow, message):
            return None if flow == "flow4" else message

        first = run_honest_session(tag, db, rng, interpose=lose_final)
        assert first.both_accepted  # the tag already accepted; only the ok got lost
        assert run_honest_session(tag, db, rng).both_accepted

    def test_transcript_records_flows_in_order(self):
        tag, db, rng = make_world()
        result = run_honest_session(tag, db, rng)
        flows = ("flow1", "flow2", "flow3", "flow4")
        assert [e.flow for e in result.transcript.entries if e.flow in flows] == [
            "flow1",
            "flow2",
            "flow3",
            "flow4",
        ]
