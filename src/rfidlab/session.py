"""The session driver and the verdicts and results both protocols share.

Both protocols run the same flow engine: the reader opens, the tag answers,
the reader judges, and the tag judges the reply. :func:`drive` runs it once
for either protocol, reading what differs from the protocol's
:class:`Protocol` table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .bits import BitString
from .transcript import Transcript


# How many sessions a reader keeps open: ``Reader.begin`` evicts the oldest once
# this many wait for a flow2, so blocked or abandoned sessions cannot grow a
# reader without bound. A game trial makes at most ``game.BUDGET`` queries,
# so this must be at least that for no trial to evict; an evicted session
# answers like an unknown one.
MAX_OPEN_SESSIONS = 64


class ProtocolError(ValueError):
    """A message no honest party could have produced (wrong shape or width)."""


def params_from_dict(cls, doc):
    """Build a protocol's params dataclass from its ``to_dict`` form.

    Every field must be present and an int, and no other key is allowed, so
    a transcript or snapshot that names a width the protocol does not have
    fails here instead of being ignored. Raises ValueError.

    Every document is validated; the params object is then built once per
    distinct (class, items), since a file of transcripts repeats the same
    few params. Params are frozen, so callers may share one.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"params must be an object, got {doc!r}")
    names = cls.__dataclass_fields__.keys()
    if doc.keys() != names:
        unknown = sorted(doc.keys() - names)
        if unknown:
            raise ValueError(f"unknown params {', '.join(unknown)}")
        raise ValueError(f"params lack {', '.join(names - doc.keys())}")
    for name, value in doc.items():
        if type(value) is not int:
            raise ValueError(f"params {name} must be an integer, got {value!r}")
    return _build_params(cls, tuple(doc.items()))


# The values are validated ints, so True or 96.0, which hash and compare equal
# to 1 or 96, never reach the cache.
@lru_cache(maxsize=64)
def _build_params(cls, items: tuple):
    return cls(**dict(items))


class Message:
    """Base of every on-wire message: its transcript fields are its dataclass fields."""

    def fields(self) -> dict:
        return self.__dict__.copy()  # a new dict: the caller may change it


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SessionVerdict:
    """One party's decision for one session.

    ``reason`` is the internal, machine-readable detail ("unknown-idt",
    "bad-h1", ... or the accept branch for LWJX readers); it appears in
    transcripts and logs but never on the wire. ``issued`` is what an
    accepting reader handed out in the session (the FWCFP alias); it
    appears neither on the wire nor in transcripts.
    """

    party: str
    ok: bool
    reason: str | None = None
    issued: BitString | None = field(default=None, compare=False)

    def fields(self) -> dict:
        out = {"party": self.party, "outcome": "accept" if self.ok else "reject"}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class SessionResult:
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


@dataclass(frozen=True)
class Protocol:
    """What one protocol looks like to the session driver and to the game.

    The driver and the game call ``respond``, ``begin`` and ``authenticate``
    directly. Only ``finalize`` is adapted: an LWJX tag returns a bare
    verdict, as does the stand-in that ``bench/test_bench.py`` installs. It
    and ``run_session`` look the method or ``run_honest_session`` up at call
    time, so a wrapper installed on the class or module is the one that runs.
    """

    name: str
    flow1: type  # the challenge a tag answers
    flow3: type  # the reply a tag judges
    state: tuple[str, ...]  # the tag attributes Corrupt reads and may overwrite
    disclose: Callable  # tag -> the secrets disclosed at session start
    disclose_after: Callable  # tag -> the secrets added once the tag has judged
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
    replacement, or return None to block it. Every honest emission and every
    tamper or block event lands in the transcript.
    """
    sid, flow1 = db.begin(rng)
    transcript = Transcript(session=sid, protocol=protocol.name, params=db.params.to_dict())
    if disclose_secrets:
        transcript.secrets = protocol.disclose(tag)

    def deliver(flow, sender, message):
        transcript.add(flow, sender, message.fields())
        if interpose is None:
            return message
        delivered = interpose(flow, message)
        if delivered is None:
            transcript.add(flow, "adversary", {}, note="blocked")
        elif delivered is not message:
            transcript.add(flow, "adversary", delivered.fields(), note="tampered")
        return delivered

    message = deliver("flow1", "reader", flow1)
    if message is None:
        return SessionResult(transcript, None, None)
    message = deliver("flow2", "tag", tag.respond(message, rng))
    if message is None:
        return SessionResult(transcript, None, None)
    reader_verdict, reply = db.authenticate(sid, message, rng)
    if not reader_verdict.ok:
        transcript.add("reject", "reader", {})
        transcript.add("verdict", "reader", reader_verdict.fields())
        return SessionResult(transcript, reader_verdict, None)
    message = deliver("flow3", "reader", reply)
    transcript.add("verdict", "reader", reader_verdict.fields())
    if message is None:
        return SessionResult(transcript, reader_verdict, None)
    tag_verdict, final = protocol.finalize(tag, message)
    if isinstance(final, RejectMessage):
        transcript.add("reject", "tag", {})
    elif final is not None:
        deliver("flow4", "tag", final)
    transcript.add("verdict", "tag", tag_verdict.fields())
    if disclose_secrets:
        transcript.secrets.update(protocol.disclose_after(tag))
    return SessionResult(transcript, reader_verdict, tag_verdict)
