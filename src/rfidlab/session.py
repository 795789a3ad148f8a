"""The session driver and the verdicts and results both protocols share.

Both protocols run the same flow engine: the reader opens, the tag answers,
the reader judges, and the tag judges the reply. :func:`drive` runs it once
for either protocol, reading what differs from the protocol's
:class:`Protocol` table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .bits import BitString
from .records import FrozenRecord, Record, setfield
from .transcript import Transcript


# How many sessions a reader keeps open: ``Reader.begin`` evicts the oldest once
# this many wait for a flow2, so blocked or abandoned sessions cannot grow a
# reader without bound. A game trial makes at most ``game.BUDGET`` queries,
# so this must be at least that for no trial to evict; an evicted session
# answers like an unknown one.
MAX_OPEN_SESSIONS = 64


class ProtocolError(ValueError):
    """A message no honest party could have produced (wrong shape or width)."""


class Params(FrozenRecord):
    """Base of both protocols' params: frozen records of int widths, and their document.

    A params object's hash is taken once, when it is built: transcript
    writing looks its document up by it once per transcript.
    """

    def _set_widths(self, *values: int):
        """Store the fields, given in their order; each must be an int.

        As params_from_dict requires of a document, so that equal params
        write one document: 96.0 and True compare equal to 96 and 1.
        """
        for name, value in zip(self._fields, values):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setfield(self, name, value)
        setfield(self, "_hash", hash(values))

    def __hash__(self):
        return self._hash

    def to_dict(self) -> dict:
        """The fields by name, in their order: what ``params_from_dict`` reads back."""
        return {name: getattr(self, name) for name in self._fields}


def params_from_dict(cls, doc):
    """Build a protocol's params from its ``to_dict`` form.

    Every field must be present and an int, and no other key is allowed, so
    a transcript or snapshot that names a width the protocol does not have
    fails here instead of being ignored. Raises ValueError.

    Every document is validated; the params object is then built once per
    distinct (class, items), since a file of transcripts repeats the same
    few params. Params are frozen, so callers may share one.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"params must be an object, got {doc!r}")
    names = cls._names
    if doc.keys() != names:
        unknown = sorted(doc.keys() - names)
        if unknown:
            raise ValueError(f"unknown params {', '.join(unknown)}")
        raise ValueError(f"params lack {', '.join(sorted(names - doc.keys()))}")
    for name, value in doc.items():
        if type(value) is not int:
            raise ValueError(f"params {name} must be an integer, got {value!r}")
    return _build_params(cls, tuple(doc.items()))


# The values are validated ints, so True or 96.0, which hash and compare equal
# to 1 or 96, never reach the cache.
@lru_cache(maxsize=64)
def _build_params(cls, items: tuple):
    return cls(**dict(items))


class Message(FrozenRecord):
    """Base of every on-wire message: a frozen record whose fields are its transcript fields.

    A message stores nothing but its fields, so its ``__dict__`` is their dict.
    """

    def fields(self) -> dict:
        return self.__dict__.copy()  # a new dict: the caller may change it


class RejectMessage(Message):
    """The uniform on-wire rejection; deliberately carries no reason."""


class Reader:
    """Base of both readers: each session's opening nonce, from ``begin`` to its verdict."""

    def __init__(self, flow1: type, nonce_bits: int):
        self.sessions: dict[str, BitString] = {}  # session id -> opening nonce
        self._next_session = 0
        self._flow1 = flow1
        self._nonce_bits = nonce_bits

    def begin(self, rng) -> tuple[str, Message]:
        """Open a session; the oldest open one goes once MAX_OPEN_SESSIONS are open."""
        sessions = self.sessions
        if len(sessions) >= MAX_OPEN_SESSIONS:
            del sessions[next(iter(sessions))]
        sid = f"s{self._next_session}"
        self._next_session += 1
        nonce = rng.bits(self._nonce_bits)
        sessions[sid] = nonce
        return sid, self._flow1(nonce)


class SessionVerdict(FrozenRecord, uncompared=("issued",)):
    """One party's decision for one session.

    ``reason`` is the internal, machine-readable detail ("unknown-idt",
    "bad-h1", ... or the accept branch for LWJX readers); it appears in
    transcripts and logs but never on the wire. ``issued`` is what an
    accepting reader handed out in the session (the FWCFP alias); it
    appears neither on the wire nor in transcripts, and verdicts compare
    and hash without it.
    """

    party: str
    ok: bool
    reason: str | None = None
    issued: BitString | None = None

    def fields(self) -> dict:
        out = {"party": self.party, "outcome": "accept" if self.ok else "reject"}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


class SessionResult(Record):
    transcript: Transcript
    reader_verdict: SessionVerdict | None
    tag_verdict: SessionVerdict | None

    @property
    def both_accepted(self) -> bool:
        return (
            self.reader_verdict is not None
            and self.reader_verdict.ok
            and self.tag_verdict is not None
            and self.tag_verdict.ok
        )


class Protocol(FrozenRecord):
    """The one description of a protocol, which the driver, the game, replay and the CLI read.

    A frozen record: each protocol module builds its table once, at import,
    and ``game.PROTOCOLS`` maps its name to it. ``flows`` is a tuple, so
    the table hashes.

    The driver and the game call ``respond``, ``begin`` and ``authenticate``
    directly. Only ``finalize`` is adapted: an LWJX tag returns a bare
    verdict, as does the stand-in that ``bench/test_bench.py`` installs. It
    and ``run_session`` look the method or ``run_honest_session`` up at call
    time, so a wrapper installed on the class or module is the one that runs.
    """

    name: str
    params: type  # the params class: params_from_dict builds it from a document
    flows: tuple[type, ...]  # the message class of flow1, flow2, ..., in order
    state: tuple[str, ...]  # the tag attributes Corrupt reads and may overwrite
    disclose: Callable  # tag -> the secrets disclosed at session start
    disclose_after: Callable  # tag -> the secrets added once the tag has judged
    disclosed: frozenset  # the names of all the secrets these two disclose
    finalize: Callable  # (tag, flow3) -> (verdict, flow4 or reject, or None)
    new_reader: Callable  # (params, rng) -> a reader with no tags
    provision: Callable  # (db, rng[, id, k]) -> a new tag registered with db
    widths: Callable  # params -> (identifier width, key width)
    run_session: Callable  # (tag, db, rng) -> SessionResult, the module's driver


def drive(
    protocol: Protocol, tag, db, rng, *, interpose=None, disclose_secrets: bool = False
) -> SessionResult:
    """Drive one full session, optionally letting an adversary sit on the channel.

    ``interpose(flow_name, message)`` may pass the message through, return a
    replacement, or return None to block it. The transcript logs every
    honest emission, every tamper or block event, every reject marker and
    verdict, as the message or verdict object delivered; their fields and
    the transcript's entries are built only if someone reads them.

    ``deliver(flow, sender, message)`` logs a flow and returns what arrives:
    ``Transcript.add`` itself when no one interposes, so a flow costs one
    call, else :func:`_interposed`.
    """
    sid, flow1 = db.begin(rng)
    transcript = Transcript(sid, protocol.name, db.params)
    if disclose_secrets:
        transcript.secrets = protocol.disclose(tag)
    add = transcript.add
    deliver = add if interpose is None else _interposed(add, interpose)

    message = deliver("flow1", "reader", flow1)
    if message is None:
        return SessionResult(transcript, None, None)
    message = deliver("flow2", "tag", tag.respond(message, rng))
    if message is None:
        return SessionResult(transcript, None, None)
    reader_verdict, reply = db.authenticate(sid, message, rng)
    if not reader_verdict.ok:
        add("reject", "reader", None)
        add("verdict", "reader", reader_verdict)
        return SessionResult(transcript, reader_verdict, None)
    message = deliver("flow3", "reader", reply)
    add("verdict", "reader", reader_verdict)
    if message is None:
        return SessionResult(transcript, reader_verdict, None)
    tag_verdict, final = protocol.finalize(tag, message)
    if isinstance(final, RejectMessage):
        add("reject", "tag", None)
    elif final is not None:
        deliver("flow4", "tag", final)
    add("verdict", "tag", tag_verdict)
    if disclose_secrets:
        transcript.secrets.update(protocol.disclose_after(tag))
    return SessionResult(transcript, reader_verdict, tag_verdict)


def _interposed(add, interpose):
    """A ``deliver`` that logs each flow, hands it to ``interpose`` and logs what that did."""

    def deliver(flow, sender, message):
        add(flow, sender, message)
        delivered = interpose(flow, message)
        if delivered is None:
            add(flow, "adversary", None, "blocked")
        elif delivered is not message:
            add(flow, "adversary", delivered, "tampered")
        return delivered

    return deliver
