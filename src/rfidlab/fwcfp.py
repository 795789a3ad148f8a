"""The FWCFP mutual-authentication protocol as executable state machines.

Four flows per session:

    reader -> tag   rand1
    tag -> reader   IDTA, H(K || rand1), rand2
    reader -> tag   H(K || rand2), A, B
    tag -> reader   ok

The tag holds a static key K and a rotating encrypted alias IDTA; the
reader decrypts the alias with its private permutation key to recover the
static identifier IDT, then hides the next alias inside A and B under two
hash masks. The tag accepts the new alias only when both maskings agree.
"""

from __future__ import annotations

from .bits import BitString
from .crypto import PermKey, expand_mask, h_params, invert, permute, truncated_hash
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

PROTOCOL_NAME = "fwcfp"

# every verdict but the reader's accept, which carries the issued alias, is
# a fixed value; verdicts are frozen, so each is built once and shared
_TAG_ACCEPT = SessionVerdict("tag", True)
_TAG_BAD_H2 = SessionVerdict("tag", False, "bad-h2")
_TAG_ALIAS_MISMATCH = SessionVerdict("tag", False, "alias-mismatch")
_READER_UNKNOWN_IDT = SessionVerdict("reader", False, "unknown-idt")
_READER_BAD_H1 = SessionVerdict("reader", False, "bad-h1")


class FwcfpParams(Params):
    id_bits: int
    key_bits: int
    nonce_bits: int
    hash_bits: int
    rand0_bits: int

    def __init__(
        self,
        id_bits: int = 96,
        key_bits: int = 96,
        nonce_bits: int = 96,
        hash_bits: int = 96,
        rand0_bits: int = 32,
    ):
        self._set_widths(id_bits, key_bits, nonce_bits, hash_bits, rand0_bits)
        for name in self._fields:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if (id_bits + rand0_bits) % 2:
            # the alias cipher is a balanced Feistel network over IDT || nonce
            raise ValueError(f"id_bits + rand0_bits must be even, got {id_bits} + {rand0_bits}")
        # not fields: equality, hashing, repr and to_dict stay on the widths.
        # alias_bits is the alias block width (the ciphertext encodes IDT and
        # the alias nonce); hash is the H oracle every session calls.
        setfield(self, "alias_bits", id_bits + rand0_bits)
        setfield(self, "hash", h_params(hash_bits))


class Flow1(Message):
    rand1: BitString


class Flow2(Message):
    idta: BitString
    h1: BitString
    rand2: BitString


class Flow3(Message):
    h2: BitString
    a: BitString
    b: BitString


class Flow4(Message):
    ok: bool = True


def alias_masks(p: FwcfpParams, k: int, rand1: int, rand2: int) -> tuple[int, int]:
    """The two alias masks, as ints.

    The mask over A is the hash of K || rand1 || rand2 and the mask over B
    that of K || rand2 || rand1, each expanded to the alias width.
    """
    n = p.nonce_bits
    width = p.key_bits + 2 * n
    return (
        expand_mask(p.hash, width, (((k << n) | rand1) << n) | rand2, p.alias_bits),
        expand_mask(p.hash, width, (((k << n) | rand2) << n) | rand1, p.alias_bits),
    )


class FwcfpTag:
    """Tag side: secrets (K, IDTA) plus a pending-session nonce pair.

    ``bookkeeping_idt`` is a test fixture for checking alias consistency
    from the outside; protocol logic never reads it.
    """

    def __init__(
        self,
        params: FwcfpParams,
        k: BitString,
        idta: BitString,
        bookkeeping_idt: BitString,
    ):
        if k.width != params.key_bits or idta.width != params.alias_bits:
            raise ProtocolError("tag secrets have the wrong widths")
        self.params = params
        self.k = k
        self.idta = idta
        self.bookkeeping_idt = bookkeeping_idt
        self._session: tuple[BitString, BitString] | None = None

    def respond(self, flow1: Flow1, rng: Rng) -> Flow2:
        """Answer a fresh challenge; secrets are untouched."""
        p = self.params
        if not isinstance(flow1, Flow1) or flow1.rand1.width != p.nonce_bits:
            raise ProtocolError("flow1 must carry a nonce of the configured width")
        rand2 = rng.bits(p.nonce_bits)
        self._session = (flow1.rand1, rand2)
        n = p.nonce_bits
        h1 = truncated_hash(p.hash, p.key_bits + n, (self.k.value << n) | flow1.rand1.value)
        return Flow2(idta=self.idta, h1=BitString(p.hash_bits, h1), rand2=rand2)

    def finalize(self, flow3: Flow3) -> tuple[SessionVerdict, Flow4 | RejectMessage]:
        """Check the reader's reply and, if both maskings agree, rotate the alias."""
        p = self.params
        if (
            not isinstance(flow3, Flow3)
            or flow3.h2.width != p.hash_bits
            or flow3.a.width != p.alias_bits
            or flow3.b.width != p.alias_bits
        ):
            raise ProtocolError("flow3 shape or widths invalid")
        if self._session is None:
            raise ProtocolError("no session in progress")
        rand1, rand2 = self._session
        n, k, rand1, rand2 = p.nonce_bits, self.k.value, rand1.value, rand2.value
        if truncated_hash(p.hash, p.key_bits + n, (k << n) | rand2) != flow3.h2.value:
            return _TAG_BAD_H2, RejectMessage()
        mask1, mask2 = alias_masks(p, k, rand1, rand2)
        alias1 = flow3.a.value ^ mask1
        if alias1 != flow3.b.value ^ mask2:
            return _TAG_ALIAS_MISMATCH, RejectMessage()
        self.idta = BitString(p.alias_bits, alias1)
        self._session = None
        return _TAG_ACCEPT, Flow4()


class FwcfpReaderDb(Reader):
    """Reader and backend in one: master permutation key plus IDT registry.

    The reader keeps no per-tag alias state, only the opening nonce of each
    session until its verdict, so losing a final flow never affects later
    sessions.
    """

    def __init__(self, params: FwcfpParams, ks: PermKey):
        if ks.width != params.alias_bits:
            raise ProtocolError("master key block width must match the alias width")
        super().__init__(Flow1, params.nonce_bits)
        self.params = params
        self.ks = ks
        self.registry: dict[int, BitString] = {}  # IDT value -> K

    @classmethod
    def create(cls, params: FwcfpParams, rng: Rng) -> FwcfpReaderDb:
        return cls(params, PermKey.generate(rng, params.alias_bits))

    def register(self, idt: BitString, k: BitString):
        p = self.params
        if idt.width != p.id_bits or k.width != p.key_bits:
            raise ProtocolError("registry entry widths invalid")
        if idt.value in self.registry:
            raise ValueError(f"duplicate IDT {idt.render()}")
        self.registry[idt.value] = k

    def provision_tag(
        self, rng: Rng, idt: BitString | None = None, k: BitString | None = None
    ) -> FwcfpTag:
        """Register a tag and hand it a freshly encrypted alias."""
        p = self.params
        if idt is None:
            idt = rng.bits(p.id_bits)
        if k is None:
            k = rng.bits(p.key_bits)
        alias = permute(self.ks, (idt.value << p.rand0_bits) | rng.uint(p.rand0_bits))
        idta = BitString(p.alias_bits, alias)
        self.register(idt, k)
        return FwcfpTag(p, k, idta, bookkeeping_idt=idt)

    def authenticate(
        self, sid: str, flow2: Flow2, rng: Rng
    ) -> tuple[SessionVerdict, Flow3 | RejectMessage]:
        """Decrypt the alias, check H(K || rand1) and issue the next alias.

        The verdict, accept or reject, closes the session, and an accepting
        verdict carries the issued alias; a malformed flow2 raises
        ProtocolError and leaves the session open.
        """
        p = self.params
        rand1 = self.sessions.get(sid)
        if rand1 is None:
            raise ProtocolError(f"unknown session {sid!r}")
        if (
            not isinstance(flow2, Flow2)
            or flow2.idta.width != p.alias_bits
            or flow2.h1.width != p.hash_bits
            or flow2.rand2.width != p.nonce_bits
        ):
            raise ProtocolError("flow2 shape or widths invalid")
        del self.sessions[sid]
        idt = invert(self.ks, flow2.idta.value) >> p.rand0_bits
        key = self.registry.get(idt)
        if key is None:
            return _READER_UNKNOWN_IDT, RejectMessage()
        n, width = p.nonce_bits, p.key_bits + p.nonce_bits
        k, rand1, rand2 = key.value, rand1.value, flow2.rand2.value
        if truncated_hash(p.hash, width, (k << n) | rand1) != flow2.h1.value:
            return _READER_BAD_H1, RejectMessage()
        alias = permute(self.ks, (idt << p.rand0_bits) | rng.uint(p.rand0_bits))
        mask1, mask2 = alias_masks(p, k, rand1, rand2)
        h2 = truncated_hash(p.hash, width, (k << n) | rand2)
        return (
            SessionVerdict("reader", True, issued=BitString(p.alias_bits, alias)),
            Flow3(
                h2=BitString(p.hash_bits, h2),
                a=BitString(p.alias_bits, alias ^ mask1),
                b=BitString(p.alias_bits, alias ^ mask2),
            ),
        )


def alias_identity(db: FwcfpReaderDb, tag: FwcfpTag) -> BitString:
    """Decrypt the tag's current alias back to its identifier (test oracle)."""
    p = db.params
    return BitString(p.id_bits, invert(db.ks, tag.idta.value) >> p.rand0_bits)


def run_honest_session(
    tag: FwcfpTag,
    db: FwcfpReaderDb,
    rng: Rng,
    *,
    interpose=None,
    disclose_secrets: bool = False,
) -> SessionResult:
    """Drive one FWCFP session through :func:`session.drive`."""
    return drive(PROTOCOL, tag, db, rng, interpose=interpose, disclose_secrets=disclose_secrets)


PROTOCOL = Protocol(
    name=PROTOCOL_NAME,
    params=FwcfpParams,
    flows=(Flow1, Flow2, Flow3, Flow4),
    state=("k", "idta"),
    disclose=lambda tag: {"k": tag.k, "idt": tag.bookkeeping_idt, "alias_before": tag.idta},
    disclose_after=lambda tag: {"alias_after": tag.idta},
    disclosed=frozenset({"k", "idt", "alias_before", "alias_after"}),
    finalize=lambda tag, flow3: tag.finalize(flow3),
    new_reader=FwcfpReaderDb.create,
    provision=FwcfpReaderDb.provision_tag,
    widths=lambda params: (params.id_bits, params.key_bits),
    run_session=lambda tag, db, rng: run_honest_session(tag, db, rng),
)
