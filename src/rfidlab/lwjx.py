"""The LWJX hash-chain authentication protocol as executable state machines.

Three flows per session:

    reader -> tag   Rr
    tag -> reader   H(ID), H(K || Rr), Rt
    reader -> tag   H(Kx || Rt)        x = new or old

The tag's identifier walks a G-chain on every successful session and its
key is rebuilt from the identifier and both session nonces. The reader
keeps the current and previous epoch of each tag so a tag that missed the
final flow can still authenticate through the old pair; the per-record
counter M tracks how often that happened since the last current-epoch
authentication and triggers a warning above a configured limit.

The reader finds a tag's record through an index from identifier hash to
record positions, one for each epoch, so authentication costs the same
however many tags are provisioned. Lookup order is fixed: new epoch before
old, and within an epoch provisioning order, the first record whose key
hash verifies winning.

The identifier, key and nonces share one width: they are XOR-combined
into the next key, so unequal widths would make the update ill-typed.
The transport hashes H(.) may truncate to a narrower width; G keeps the
value width because the identifier chain feeds back into the key.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .bits import BitString
from .crypto import g_params, h_params, truncated_hash
from .rng import Rng
from .session import (
    Message,
    Protocol,
    ProtocolError,
    Reader,
    RejectMessage,
    SessionResult,
    SessionVerdict,
    drive,
)

PROTOCOL_NAME = "lwjx"

# verdicts are frozen and none carries per-session data, so each is built
# once and shared
_TAG_ACCEPT = SessionVerdict("tag", True)
_TAG_BAD_HKT = SessionVerdict("tag", False, "bad-hkt")
_READER_NEW_BRANCH = SessionVerdict("reader", True, "new-branch")
_READER_OLD_BRANCH = SessionVerdict("reader", True, "old-branch")
_READER_WARN_LIMIT = SessionVerdict("reader", False, "warn-limit")
_READER_BAD_KEY_HASH = SessionVerdict("reader", False, "bad-key-hash")
_READER_NO_MATCH = SessionVerdict("reader", False, "no-match")


@dataclass(frozen=True)
class LwjxParams:
    bits: int = 96  # shared width of identifiers, keys and nonces
    hash_bits: int = 96
    m_limit: int = 5

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be positive")
        if self.hash_bits < 1:
            raise ValueError("hash_bits must be positive")
        if self.m_limit < 0:
            raise ValueError("m_limit must be >= 0")
        # not fields: equality, hashing, repr and to_dict stay on the widths
        object.__setattr__(self, "h", h_params(self.hash_bits))
        object.__setattr__(self, "g", g_params(self.bits))

    def to_dict(self) -> dict:
        return {"bits": self.bits, "hash_bits": self.hash_bits, "m_limit": self.m_limit}


@dataclass(frozen=True)
class Flow1(Message):
    rr: BitString


@dataclass(frozen=True)
class Flow2(Message):
    hid: BitString
    hk: BitString
    rt: BitString


@dataclass(frozen=True)
class Flow3(Message):
    hkt: BitString


class LwjxTag:
    """Tag side: identifier and key, both rewritten on a verified reply."""

    def __init__(self, params: LwjxParams, id_: BitString, k: BitString):
        if id_.width != params.bits or k.width != params.bits:
            raise ProtocolError("tag secrets must use the protocol width")
        self.params = params
        self.id = id_
        self.k = k
        self._session: tuple[BitString, BitString] | None = None

    def respond(self, flow1: Flow1, rng: Rng) -> Flow2:
        p = self.params
        if not isinstance(flow1, Flow1) or flow1.rr.width != p.bits:
            raise ProtocolError("flow1 must carry a nonce of the protocol width")
        rt = rng.bits(p.bits)
        self._session = (flow1.rr, rt)
        n = p.bits
        return Flow2(
            hid=BitString(p.hash_bits, truncated_hash(p.h, n, self.id.value)),
            hk=BitString(
                p.hash_bits, truncated_hash(p.h, 2 * n, (self.k.value << n) | flow1.rr.value)
            ),
            rt=rt,
        )

    def finalize(self, flow3: Flow3) -> SessionVerdict:
        """Verify the reply; on success chain the identifier and rebuild the key."""
        p = self.params
        if not isinstance(flow3, Flow3) or flow3.hkt.width != p.hash_bits:
            raise ProtocolError("flow3 shape or width invalid")
        if self._session is None:
            raise ProtocolError("no session in progress")
        rr, rt = self._session
        n = p.bits
        if truncated_hash(p.h, 2 * n, (self.k.value << n) | rt.value) != flow3.hkt.value:
            return _TAG_BAD_HKT
        new_id = truncated_hash(p.g, n, self.id.value)
        self.id = BitString(n, new_id)
        self.k = BitString(n, new_id ^ rr.value ^ rt.value)
        self._session = None
        return _TAG_ACCEPT


@dataclass
class LwjxReaderRecord:
    id: BitString
    h_id_new: BitString
    h_id_old: BitString | None
    k_new: BitString
    k_old: BitString | None
    m: int = 0


class LwjxReaderDb(Reader):
    """The reader: per-tag records in provisioning order, indexed by H(ID).

    ``records`` is the ordered store that snapshots and the CLI read; a
    record's position in it never changes. Two indexes map the int value of
    an identifier hash to the positions of the records whose new epoch
    (``_by_new``) or old epoch (``_by_old``) carries it, each bucket sorted in
    provisioning order. Records enter only through :meth:`add_record`, and
    only the new-branch rewrite moves a record between buckets: the old
    branch changes ``m`` and ``k_new``, which the index does not key on.
    """

    def __init__(self, params: LwjxParams):
        super().__init__(Flow1, params.bits)  # the opening nonce is rr
        self.params = params
        self.records: list[LwjxReaderRecord] = []
        self._by_new: dict[int, list[int]] = {}
        self._by_old: dict[int, list[int]] = {}

    def add_record(self, rec: LwjxReaderRecord):
        """Append a record and index its epochs.

        The index keys on hash values alone, so the widths are checked here,
        and so is the counter, which the reader compares with ``m_limit``.
        """
        p = self.params
        old_hash, old_key = rec.h_id_old, rec.k_old
        if type(rec.m) is not int or rec.m < 0:
            raise ValueError(f"m must be a non-negative integer, got {rec.m!r}")
        if (
            rec.id.width != p.bits
            or rec.k_new.width != p.bits
            or rec.h_id_new.width != p.hash_bits
            or (old_hash is None) != (old_key is None)
            or (old_hash is not None and old_hash.width != p.hash_bits)
            or (old_key is not None and old_key.width != p.bits)
        ):
            raise ValueError(
                "record fields must match the protocol widths, old epoch all or nothing"
            )
        pos = len(self.records)
        self.records.append(rec)
        _index(self._by_new, rec.h_id_new.value, pos)
        if old_hash is not None:
            _index(self._by_old, old_hash.value, pos)

    def provision(
        self, rng: Rng, id_: BitString | None = None, k: BitString | None = None
    ) -> LwjxTag:
        p = self.params
        if id_ is None:
            id_ = rng.bits(p.bits)
        if k is None:
            k = rng.bits(p.bits)
        self.add_record(
            LwjxReaderRecord(
                id=id_,
                h_id_new=BitString(p.hash_bits, truncated_hash(p.h, id_.width, id_.value)),
                h_id_old=None,
                k_new=k,
                k_old=None,
                m=0,
            )
        )
        return LwjxTag(p, id_, k)

    def authenticate(
        self, sid: str, flow2: Flow2, rng: Rng
    ) -> tuple[SessionVerdict, Flow3 | RejectMessage]:
        """Match the identifier hash against the new then the old epoch.

        The candidates come from the index: first the records whose new
        epoch carries H(ID), then those whose old epoch does, each in
        provisioning order. The first whose key hash verifies wins, so
        identifier-hash collisions at small widths resolve deterministically.
        An old-epoch candidate bumps its counter M before its key hash is
        checked, and one already past ``m_limit`` is skipped. The verdict,
        accept or reject, closes the session; a malformed flow2 raises
        ProtocolError and leaves it open. It draws nothing from ``rng``.
        """
        p = self.params
        rr = self.sessions.get(sid)
        if rr is None:
            raise ProtocolError(f"unknown session {sid!r}")
        if (
            not isinstance(flow2, Flow2)
            or flow2.hid.width != p.hash_bits
            or flow2.hk.width != p.hash_bits
            or flow2.rt.width != p.bits
        ):
            raise ProtocolError("flow2 shape or widths invalid")
        del self.sessions[sid]
        n, width = p.bits, 2 * p.bits
        rr, rt, hk = rr.value, flow2.rt.value, flow2.hk.value
        key = flow2.hid.value
        records = self.records
        new_bucket = self._by_new.get(key)
        if new_bucket is not None:
            for pos in new_bucket:
                rec = records[pos]
                shifted_key = rec.k_new.value << n
                if truncated_hash(p.h, width, shifted_key | rr) == hk:
                    reply = truncated_hash(p.h, width, shifted_key | rt)
                    # unindex both epochs before reindexing: at narrow hash
                    # widths the old, current and next H(ID) may coincide
                    _unindex(self._by_new, key, pos)
                    if rec.h_id_old is not None:
                        _unindex(self._by_old, rec.h_id_old.value, pos)
                    rec.m = 0
                    new_id = truncated_hash(p.g, n, rec.id.value)
                    new_hash = truncated_hash(p.h, n, new_id)
                    rec.id = BitString(n, new_id)
                    rec.h_id_old = rec.h_id_new
                    rec.h_id_new = BitString(p.hash_bits, new_hash)
                    rec.k_old = rec.k_new
                    rec.k_new = BitString(n, new_id ^ rr ^ rt)
                    _index(self._by_old, key, pos)
                    _index(self._by_new, new_hash, pos)
                    return _READER_NEW_BRANCH, Flow3(BitString(p.hash_bits, reply))
        old_bucket = self._by_old.get(key)
        limit_hit = False
        if old_bucket is not None:
            for pos in old_bucket:
                rec = records[pos]
                if rec.m > p.m_limit:
                    limit_hit = True
                    continue
                rec.m += 1
                shifted_key = rec.k_old.value << n
                if truncated_hash(p.h, width, shifted_key | rr) == hk:
                    reply = truncated_hash(p.h, width, shifted_key | rt)
                    # a tag that verifies this reply rebuilds its key from the
                    # current nonces; the stored new key must follow or the next
                    # new-epoch check could never verify again
                    rec.k_new = BitString(n, rec.id.value ^ rr ^ rt)
                    return _READER_OLD_BRANCH, Flow3(BitString(p.hash_bits, reply))
        if limit_hit:
            return _READER_WARN_LIMIT, RejectMessage()
        if new_bucket is not None or old_bucket is not None:
            return _READER_BAD_KEY_HASH, RejectMessage()
        return _READER_NO_MATCH, RejectMessage()


def _index(index: dict[int, list[int]], key: int, pos: int):
    """Add a record position to its bucket, keeping provisioning order."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = [pos]
    else:
        insort(bucket, pos)


def _unindex(index: dict[int, list[int]], key: int, pos: int):
    """Remove a record position; an emptied bucket goes, so no key lingers."""
    bucket = index[key]
    if len(bucket) == 1:
        del index[key]
    else:
        bucket.remove(pos)


def is_synchronized(db: LwjxReaderDb, tag: LwjxTag) -> bool:
    """Some record's new or old epoch matches the tag's (H(ID), K)."""
    key = truncated_hash(db.params.h, tag.id.width, tag.id.value)
    records = db.records
    return any(records[pos].k_new == tag.k for pos in db._by_new.get(key, ())) or any(
        records[pos].k_old == tag.k for pos in db._by_old.get(key, ())
    )


def run_honest_session(
    tag: LwjxTag,
    db: LwjxReaderDb,
    rng: Rng,
    *,
    drop_flow3: bool = False,
    interpose=None,
    disclose_secrets: bool = False,
) -> SessionResult:
    """Drive one session; ``drop_flow3`` loses the reply so the tag never updates.

    The loss is an interposer that blocks flow3 before ``interpose`` sees it.
    """
    if drop_flow3:
        interpose = _dropping_flow3(interpose)
    return drive(PROTOCOL, tag, db, rng, interpose=interpose, disclose_secrets=disclose_secrets)


def _dropping_flow3(interpose):
    def dropping(flow, message):
        if flow == "flow3":
            return None
        return message if interpose is None else interpose(flow, message)

    return dropping


PROTOCOL = Protocol(
    name=PROTOCOL_NAME,
    flow1=Flow1,
    flow3=Flow3,
    state=("id", "k"),
    disclose=lambda tag: {"id": tag.id, "k": tag.k},
    disclose_after=lambda tag: {"id_after": tag.id, "k_after": tag.k},
    # the tag sends nothing once it has judged the reply: no flow4, no reject
    finalize=lambda tag, flow3: (tag.finalize(flow3), None),
    new_reader=lambda params, rng: LwjxReaderDb(params),
    provision=LwjxReaderDb.provision,
    widths=lambda params: (params.bits, params.bits),
    run_session=lambda tag, db, rng: run_honest_session(tag, db, rng),
)
