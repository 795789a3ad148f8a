"""Verdicts and results shared by both protocol state machines."""

from __future__ import annotations

from dataclasses import dataclass

from .transcript import Transcript


class ProtocolError(ValueError):
    """A message no honest party could have produced (wrong shape or width)."""


def params_from_dict(cls, doc):
    """Build a protocol's params dataclass from its ``to_dict`` form.

    Every field must be present and an int, and no other key is allowed, so
    a transcript or snapshot that names a width the protocol does not have
    fails here instead of being ignored. Raises ValueError.
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
    return cls(**doc)


@dataclass(frozen=True)
class RejectMessage:
    """The uniform on-wire rejection; deliberately carries no reason."""

    def fields(self) -> dict:
        return {}


@dataclass(frozen=True)
class SessionVerdict:
    """One party's decision for one session.

    ``reason`` is the internal, machine-readable detail ("unknown-idt",
    "bad-h1", ... or the accept branch for LWJX readers); it appears in
    transcripts and logs but never on the wire.
    """

    party: str
    ok: bool
    reason: str | None = None

    def fields(self) -> dict:
        out = {"party": self.party, "outcome": "accept" if self.ok else "reject"}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class SessionResult:
    transcript: Transcript
    session_id: str
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
