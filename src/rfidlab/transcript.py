"""Session transcripts and their JSON-lines serialization.

A transcript is the ordered record of everything that crossed the channel
in one protocol session: the flows, any adversary tampering or blocking
events, and the parties' verdicts. Verdict entries carry the detailed
internal reason and are experimenter-side annotations; on the wire every
rejection looks the same.

On disk a transcript is one meta line followed by one JSON object per
entry, with every BitString in canonical "<width>:<hex>" text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .bits import LITERAL_SHAPE, BitString, from_literal
from .crypto import HASH_NAME

SCHEMA_VERSION = 1

FLOW_NAMES = ("flow1", "flow2", "flow3", "flow4")

# what json.dumps(doc, sort_keys=True) builds on every call, built once
_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(slots=True)
class TranscriptEntry:
    flow: str  # "flow1".."flow4", "reject" or "verdict"
    sender: str  # "reader", "tag" or "adversary"
    fields: dict
    note: str | None = None  # e.g. "tampered", "blocked"


@dataclass(slots=True)
class Transcript:
    session: str
    protocol: str
    params: dict
    entries: list[TranscriptEntry] = field(default_factory=list)
    secrets: dict | None = None  # disclosed only in fixtures, never in games

    def add(self, flow: str, sender: str, fields: dict, note: str | None = None):
        self.entries.append(TranscriptEntry(flow, sender, fields, note))

    def flows(self) -> list[TranscriptEntry]:
        """Protocol flows only, excluding verdicts and reject markers."""
        return [e for e in self.entries if e.flow in FLOW_NAMES]

    def delivered(self, flow: str) -> dict | None:
        """Fields of the named flow as the receiving party saw them.

        When an adversary entry for the flow exists it supersedes the
        honest sender's entry; a "blocked" entry means nothing arrived.
        """
        for entry in reversed(self.entries):
            if entry.flow == flow:
                return None if entry.note == "blocked" else entry.fields
        return None


def _encode_fields(fields: dict) -> dict:
    return {k: v.render() if isinstance(v, BitString) else v for k, v in fields.items()}


def _decode_fields(fields: dict) -> dict:
    """Fields with every string of a literal's shape parsed to a BitString."""
    if not isinstance(fields, dict):
        raise ValueError(f"expected an object of fields, got {fields!r}")
    shape = LITERAL_SHAPE.match
    return {
        k: from_literal(match) if isinstance(v, str) and (match := shape(v)) else v
        for k, v in fields.items()
    }


def _text(doc: dict, key: str) -> str:
    value = doc[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def transcript_to_lines(transcript: Transcript) -> list[str]:
    meta = {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "session": transcript.session,
        "protocol": transcript.protocol,
        "hash": HASH_NAME,
        "params": transcript.params,
    }
    if transcript.secrets is not None:
        meta["secrets"] = _encode_fields(transcript.secrets)
    encode = _ENCODER.encode
    lines = [encode(meta)]
    for entry in transcript.entries:
        doc = {
            "type": "entry",
            "session": transcript.session,
            "flow": entry.flow,
            "sender": entry.sender,
            "fields": _encode_fields(entry.fields),
        }
        if entry.note is not None:
            doc["note"] = entry.note
        lines.append(encode(doc))
    return lines


def write_jsonl(path, transcripts: Iterable[Transcript]):
    with open(path, "w", encoding="utf-8") as handle:
        for transcript in transcripts:
            lines = transcript_to_lines(transcript)
            lines.append("")  # so that the join ends the last line too
            handle.write("\n".join(lines))


class TranscriptFormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_jsonl(path) -> list[Transcript]:
    """Parse a transcript file; malformed lines report their line number."""
    transcripts: list[Transcript] = []
    current: Transcript | None = None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise TranscriptFormatError(number, f"invalid JSON ({exc.msg})")
                if not isinstance(doc, dict):
                    raise TranscriptFormatError(number, "not a JSON object")
                kind = doc.get("type")
                if kind == "meta":
                    schema = doc.get("schema")
                    if type(schema) is not int or schema != SCHEMA_VERSION:
                        raise TranscriptFormatError(number, f"unsupported schema {schema!r}")
                    try:
                        current = Transcript(
                            session=_text(doc, "session"),
                            protocol=_text(doc, "protocol"),
                            params=doc["params"],
                            secrets=_decode_fields(doc["secrets"])
                            if "secrets" in doc
                            else None,
                        )
                    except (KeyError, ValueError) as exc:
                        raise TranscriptFormatError(number, f"bad meta line ({exc})")
                    transcripts.append(current)
                elif kind == "entry":
                    if current is None:
                        raise TranscriptFormatError(number, "entry before any meta line")
                    try:
                        current.add(
                            _text(doc, "flow"),
                            _text(doc, "sender"),
                            _decode_fields(doc["fields"]),
                            _text(doc, "note") if "note" in doc else None,
                        )
                    except (KeyError, ValueError) as exc:
                        raise TranscriptFormatError(number, f"bad entry ({exc})")
                else:
                    raise TranscriptFormatError(number, f"unknown record type {kind!r}")
        except UnicodeDecodeError:
            # the decoder reads ahead of the line it hands out, so the bad
            # bytes are found again in the raw file
            raise TranscriptFormatError(_first_non_utf8_line(path), "not UTF-8 text") from None
    return transcripts


def _first_non_utf8_line(path) -> int:
    """The line, numbered as text mode numbers it, of the first non-UTF-8 byte.

    Text mode ends a line at LF, CR LF or a lone CR. No UTF-8 multibyte
    sequence contains either byte, so the file is scanned in LF-ended
    pieces, each decoded on its own, and line ends are counted up to the
    bad byte.
    """
    ends = 0
    with open(path, "rb") as handle:
        for piece in handle:
            try:
                piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ends + piece.count(b"\r", 0, exc.start) + 1
            ends += piece.count(b"\r") + piece.count(b"\n") - piece.endswith(b"\r\n")
    return ends + 1
