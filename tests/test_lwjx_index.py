"""The indexed LWJX reader against a linear-scan reference.

``linear_authenticate`` is the reader's lookup before it was indexed: one
scan over every record for the new epoch, then one for the old, both in
provisioning order. At hash_bits 2-4 identifier hashes collide often, so
random operation sequences reach shared buckets, buckets that empty and
refill, and records whose old and new epochs carry the same hash.
"""

from hypothesis import given, settings, strategies as st

from rfidlab.crypto import truncated_hash
from rfidlab.lwjx import (
    Flow2,
    Flow3,
    LwjxParams,
    LwjxReaderDb,
    is_synchronized,
)
from rfidlab.rng import Rng
from rfidlab.session import ProtocolError, RejectMessage, SessionVerdict
from rfidlab.snapshots import lwjx_db_to_doc


def linear_authenticate(db, sid, flow2):
    p = db.params
    rr = db.sessions.get(sid)
    if rr is None:
        raise ProtocolError(f"unknown session {sid!r}")
    if (
        not isinstance(flow2, Flow2)
        or flow2.hid.width != p.hash_bits
        or flow2.hk.width != p.hash_bits
        or flow2.rt.width != p.bits
    ):
        raise ProtocolError("flow2 shape or widths invalid")
    del db.sessions[sid]
    rt = flow2.rt
    matched = False
    limit_hit = False
    for rec in db.records:
        if rec.h_id_new == flow2.hid:
            matched = True
            if truncated_hash(p.h, rec.k_new.concat(rr)) == flow2.hk:
                reply = truncated_hash(p.h, rec.k_new.concat(rt))
                rec.m = 0
                rec.id = truncated_hash(p.g, rec.id)
                rec.h_id_old = rec.h_id_new
                rec.h_id_new = truncated_hash(p.h, rec.id)
                rec.k_old = rec.k_new
                rec.k_new = rec.id ^ rr ^ rt
                return SessionVerdict("reader", True, "new-branch"), Flow3(reply)
    for rec in db.records:
        if rec.h_id_old is not None and rec.h_id_old == flow2.hid:
            matched = True
            if rec.m > p.m_limit:
                limit_hit = True
                continue
            rec.m += 1
            if truncated_hash(p.h, rec.k_old.concat(rr)) == flow2.hk:
                reply = truncated_hash(p.h, rec.k_old.concat(rt))
                rec.k_new = rec.id ^ rr ^ rt
                return SessionVerdict("reader", True, "old-branch"), Flow3(reply)
    if limit_hit:
        return SessionVerdict("reader", False, "warn-limit"), RejectMessage()
    if matched:
        return SessionVerdict("reader", False, "bad-key-hash"), RejectMessage()
    return SessionVerdict("reader", False, "no-match"), RejectMessage()


def linear_is_synchronized(db, tag):
    hid = truncated_hash(db.params.h, tag.id)
    return any(
        (rec.h_id_new == hid and rec.k_new == tag.k)
        or (rec.h_id_old == hid and rec.k_old == tag.k)
        for rec in db.records
    )


def indexed_authenticate(db, sid, flow2):
    return db.authenticate(sid, flow2)


class World:
    """One reader, its tags and the flow2 messages an eavesdropper heard."""

    def __init__(self, params, seed, authenticate):
        self.rng = Rng(seed)
        self.db = LwjxReaderDb(params)
        self.tags = []
        self.heard = []
        self.authenticate = authenticate

    def step(self, op, pick):
        db, rng = self.db, self.rng
        if op == "provision":
            self.tags.append(db.provision(rng))
            return None
        if op in ("honest", "drop-flow3"):
            tag = self.tags[pick % len(self.tags)]
            sid, flow1 = db.begin(rng)
            flow2 = tag.respond(flow1, rng)
            self.heard.append(flow2)
            verdict, reply = self.authenticate(db, sid, flow2)
            tag_verdict = None
            if op == "honest" and verdict.ok:
                tag_verdict = tag.finalize(reply)
            return verdict, reply, tag_verdict
        if not self.heard:
            return None
        heard = self.heard[pick % len(self.heard)]
        if op == "replay-flow2":
            flow2 = heard
        else:  # forge: an eavesdropped H(ID) with a random key hash
            p = db.params
            flow2 = Flow2(hid=heard.hid, hk=rng.bits(p.hash_bits), rt=rng.bits(p.bits))
        sid, _ = db.begin(rng)
        return self.authenticate(db, sid, flow2)


OPS = ("provision", "honest", "drop-flow3", "replay-flow2", "forge")


@given(
    hash_bits=st.integers(2, 4),
    bits=st.integers(2, 6),
    m_limit=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    tags=st.integers(1, 5),
    ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 63)), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_indexed_reader_matches_the_linear_reference(
    hash_bits, bits, m_limit, seed, tags, ops
):
    params = LwjxParams(bits=bits, hash_bits=hash_bits, m_limit=m_limit)
    indexed = World(params, seed, indexed_authenticate)
    reference = World(params, seed, linear_authenticate)
    for op in [("provision", 0)] * tags + ops:
        assert indexed.step(*op) == reference.step(*op)
        assert lwjx_db_to_doc(indexed.db) == lwjx_db_to_doc(reference.db)
        assert indexed.db.sessions == reference.db.sessions == {}
        assert [(t.id, t.k) for t in indexed.tags] == [(t.id, t.k) for t in reference.tags]
        for tag in indexed.tags:
            assert is_synchronized(indexed.db, tag) == linear_is_synchronized(
                indexed.db, tag
            )
