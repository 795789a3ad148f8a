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

from .bits import BitString
from .crypto import g_params, h_params, truncated_hash
from .records import setfield
from .rng import Rng
from .session import (
    Message,
    Params,
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


class LwjxParams(Params):
    bits: int = 96  # shared width of identifiers, keys and nonces
    hash_bits: int = 96
    m_limit: int = 5

    def __post_init__(self):
        super().__post_init__()
        if self.bits < 1:
            raise ValueError("bits must be positive")
        if self.hash_bits < 1:
            raise ValueError("hash_bits must be positive")
        if self.m_limit < 0:
            raise ValueError("m_limit must be >= 0")
        # not fields: equality, hashing, repr and to_dict stay on the widths
        setfield(self, "h", h_params(self.hash_bits))
        setfield(self, "g", g_params(self.bits))


class Flow1(Message):
    rr: BitString


class Flow2(Message):
    hid: BitString
    hk: BitString
    rt: BitString


class Flow3(Message):
    hkt: BitString


class LwjxTag:
    """Tag side: identifier and key, both rewritten on a verified reply.

    The tag keeps its identifier, key and pending ``(rr, rt)`` as ints, the
    form the oracles take, so a session builds a BitString only for its
    flow fields. ``id`` and ``k`` are read views: each read builds a
    BitString, and a write (Corrupt's overwrite) takes one of the protocol
    width.

    Beside the identifier the tag keeps its H(ID), the int that flow2
    sends, as a reader record keeps each epoch's. ``_set_id`` is the one
    place either changes: at construction, on an overwrite and when a
    verified reply chains ID to G(ID). So ``respond`` hashes only the key,
    and the H(ID') of a chained identifier is the query the reader has
    just asked to re-index the record, which the oracle's table answers.
    """

    __slots__ = ("params", "_id", "_h_id", "_k", "_session")

    def __init__(self, params: LwjxParams, id_: BitString, k: BitString):
        self.params = params
        self._set_id(self._secret(id_))
        self._k = self._secret(k)
        self._session: tuple[int, int] | None = None

    @property
    def id(self) -> BitString:
        return BitString(self.params.bits, self._id)

    @id.setter
    def id(self, value: BitString):
        self._set_id(self._secret(value))  # a refused width changes neither

    def _set_id(self, id_: int):
        """Set the identifier and the H(ID) kept beside it."""
        p = self.params
        self._id = id_
        self._h_id = truncated_hash(p.h, p.bits, id_)

    @property
    def k(self) -> BitString:
        return BitString(self.params.bits, self._k)

    @k.setter
    def k(self, value: BitString):
        self._k = self._secret(value)

    def _secret(self, value: BitString) -> int:
        if value.width != self.params.bits:
            raise ProtocolError("tag secrets must use the protocol width")
        return value.value

    def respond(self, flow1: Flow1, rng: Rng) -> Flow2:
        p = self.params
        if not isinstance(flow1, Flow1) or flow1.rr.width != p.bits:
            raise ProtocolError("flow1 must carry a nonce of the protocol width")
        rt = rng.bits(p.bits)
        n, rr = p.bits, flow1.rr.value
        self._session = (rr, rt.value)
        return Flow2(
            hid=BitString(p.hash_bits, self._h_id),
            hk=BitString(p.hash_bits, truncated_hash(p.h, 2 * n, (self._k << n) | rr)),
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
        if truncated_hash(p.h, 2 * n, (self._k << n) | rt) != flow3.hkt.value:
            return _TAG_BAD_HKT
        self._set_id(truncated_hash(p.g, n, self._id))
        self._k = self._id ^ rr ^ rt
        self._session = None
        return _TAG_ACCEPT


_RECORD_WIDTHS = "record fields must match the protocol widths, old epoch all or nothing"


def _check_m(m):
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")


class _RecordBits:
    """A record field kept as an int (or None) in the slot ``_<name>``.

    Read, it is a BitString of the record's ``bits`` or ``hash_bits``
    (None for an empty old epoch); written, it takes a BitString of that
    width.
    """

    def __init__(self, width: str):
        self.width = width

    def __set_name__(self, owner, name):
        self.name, self.slot = name, "_" + name

    def __get__(self, rec, owner=None):
        if rec is None:
            return self
        value = getattr(rec, self.slot)
        return None if value is None else BitString(getattr(rec, self.width), value)

    def __set__(self, rec, bits: BitString):
        width = getattr(rec, self.width)
        if not isinstance(bits, BitString) or bits.width != width:
            raise ValueError(f"{self.name} must be a BitString of {width} bits, got {bits!r}")
        setattr(rec, self.slot, bits.value)


class LwjxReaderRecord:
    """One tag's record: its identifier, both epochs' H(ID) and key, and M.

    The values are kept as ints (None for an empty old epoch), with the
    identifier width ``bits`` and the hash width ``hash_bits``; the reader
    reads and rewrites the ints. ``id``, ``h_id_new``, ``h_id_old``,
    ``k_new`` and ``k_old`` are read views for snapshots, the CLI and
    tests: each read builds a BitString, and a write takes one of the
    field's width. The constructor takes BitStrings, checks that the
    fields agree on the two widths and that the old epoch is all or
    nothing, and stores their values; ``add_record`` checks the widths
    against the protocol's.
    """

    __slots__ = ("bits", "hash_bits", "_id", "_h_id_new", "_h_id_old", "_k_new", "_k_old", "m")

    id = _RecordBits("bits")
    h_id_new = _RecordBits("hash_bits")
    h_id_old = _RecordBits("hash_bits")
    k_new = _RecordBits("bits")
    k_old = _RecordBits("bits")

    def __init__(
        self,
        id: BitString,
        h_id_new: BitString,
        h_id_old: BitString | None,
        k_new: BitString,
        k_old: BitString | None,
        m: int = 0,
    ):
        bits = self.bits = id.width
        hash_bits = self.hash_bits = h_id_new.width
        if (
            k_new.width != bits
            or (h_id_old is None) != (k_old is None)
            or (h_id_old is not None and (h_id_old.width != hash_bits or k_old.width != bits))
        ):
            _check_m(m)  # a bad counter is reported before bad widths
            raise ValueError(_RECORD_WIDTHS)
        self._id = id.value
        self._h_id_new = h_id_new.value
        self._k_new = k_new.value
        if h_id_old is None:
            self._h_id_old = self._k_old = None
        else:
            self._h_id_old = h_id_old.value
            self._k_old = k_old.value
        self.m = m


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

        The index keys on hash values alone, so the record's widths are
        checked here, and so is the counter, which the reader compares with
        ``m_limit``. The record's fields already agree on its two widths.
        """
        p = self.params
        _check_m(rec.m)
        if rec.bits != p.bits or rec.hash_bits != p.hash_bits:
            raise ValueError(_RECORD_WIDTHS)
        pos = len(self.records)
        self.records.append(rec)
        _index(self._by_new, rec._h_id_new, pos)
        if rec._h_id_old is not None:
            _index(self._by_old, rec._h_id_old, pos)

    def provision(
        self, rng: Rng, id_: BitString | None = None, k: BitString | None = None
    ) -> LwjxTag:
        p = self.params
        if id_ is None:
            id_ = rng.bits(p.bits)
        if k is None:
            k = rng.bits(p.bits)
        tag = LwjxTag(p, id_, k)  # the record files under the H(ID) the tag keeps
        self.add_record(
            LwjxReaderRecord(
                id=id_,
                h_id_new=BitString(p.hash_bits, tag._h_id),
                h_id_old=None,
                k_new=k,
                k_old=None,
                m=0,
            )
        )
        return tag

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
                shifted_key = rec._k_new << n
                if truncated_hash(p.h, width, shifted_key | rr) == hk:
                    reply = truncated_hash(p.h, width, shifted_key | rt)
                    # unindex both epochs before reindexing: at narrow hash
                    # widths the old, current and next H(ID) may coincide
                    _unindex(self._by_new, key, pos)
                    if rec._h_id_old is not None:
                        _unindex(self._by_old, rec._h_id_old, pos)
                    rec.m = 0
                    new_id = truncated_hash(p.g, n, rec._id)
                    new_hash = truncated_hash(p.h, n, new_id)
                    rec._id = new_id
                    rec._h_id_old = key  # the new epoch's H(ID), its bucket's key
                    rec._h_id_new = new_hash
                    rec._k_old = rec._k_new
                    rec._k_new = new_id ^ rr ^ rt
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
                shifted_key = rec._k_old << n
                if truncated_hash(p.h, width, shifted_key | rr) == hk:
                    reply = truncated_hash(p.h, width, shifted_key | rt)
                    # a tag that verifies this reply rebuilds its key from the
                    # current nonces; the stored new key must follow or the next
                    # new-epoch check could never verify again
                    rec._k_new = rec._id ^ rr ^ rt
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
    key, k, records = tag._h_id, tag._k, db.records
    return any(records[pos]._k_new == k for pos in db._by_new.get(key, ())) or any(
        records[pos]._k_old == k for pos in db._by_old.get(key, ())
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
    params=LwjxParams,
    flows=(Flow1, Flow2, Flow3),
    state=("id", "k"),
    disclose=lambda tag: {"id": tag.id, "k": tag.k},
    disclose_after=lambda tag: {"id_after": tag.id, "k_after": tag.k},
    disclosed=frozenset({"id", "k", "id_after", "k_after"}),
    reader_verdicts=(
        _READER_NEW_BRANCH,
        _READER_OLD_BRANCH,
        _READER_WARN_LIMIT,
        _READER_BAD_KEY_HASH,
        _READER_NO_MATCH,
    ),
    # the tag sends nothing once it has judged the reply: no flow4, no reject
    finalize=lambda tag, flow3: (tag.finalize(flow3), None),
    new_reader=lambda params, rng: LwjxReaderDb(params),
    provision=LwjxReaderDb.provision,
    widths=lambda params: (params.bits, params.bits),
    run_session=lambda tag, db, rng: run_honest_session(tag, db, rng),
)
