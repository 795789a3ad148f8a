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
import re
from dataclasses import dataclass, field
from typing import Iterable

from .bits import BitString
from .crypto import HASH_NAME

SCHEMA_VERSION = 1

_BITS_RE = re.compile(r"^\d+:[0-9a-f]*$")

FLOW_NAMES = ("flow1", "flow2", "flow3", "flow4")


@dataclass
class TranscriptEntry:
    flow: str  # "flow1".."flow4", "reject" or "verdict"
    sender: str  # "reader", "tag" or "adversary"
    fields: dict
    note: str | None = None  # e.g. "tampered", "blocked"


@dataclass
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
        chosen = None
        for entry in self.entries:
            if entry.flow == flow:
                chosen = entry
        if chosen is None or chosen.note == "blocked":
            return None
        return chosen.fields


def _encode_value(value):
    if isinstance(value, BitString):
        return value.render()
    return value


def _decode_value(value):
    if isinstance(value, str) and _BITS_RE.match(value):
        return BitString.parse(value)
    return value


def _encode_fields(fields: dict) -> dict:
    return {k: _encode_value(v) for k, v in fields.items()}


def _decode_fields(fields: dict) -> dict:
    if not isinstance(fields, dict):
        raise ValueError(f"expected an object of fields, got {fields!r}")
    return {k: _decode_value(v) for k, v in fields.items()}


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
    lines = [json.dumps(meta, sort_keys=True)]
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
        lines.append(json.dumps(doc, sort_keys=True))
    return lines


def write_jsonl(path, transcripts: Iterable[Transcript]):
    with open(path, "w", encoding="utf-8") as handle:
        for transcript in transcripts:
            for line in transcript_to_lines(transcript):
                handle.write(line + "\n")


class TranscriptFormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_jsonl(path) -> list[Transcript]:
    """Parse a transcript file; malformed lines report their line number."""
    transcripts: list[Transcript] = []
    current: Transcript | None = None
    with open(path, "r", encoding="utf-8") as handle:
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
                if doc.get("schema") != SCHEMA_VERSION:
                    raise TranscriptFormatError(
                        number, f"unsupported schema {doc.get('schema')!r}"
                    )
                try:
                    current = Transcript(
                        session=doc["session"],
                        protocol=doc["protocol"],
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
                        doc["flow"],
                        doc["sender"],
                        _decode_fields(doc["fields"]),
                        doc.get("note"),
                    )
                except (KeyError, ValueError) as exc:
                    raise TranscriptFormatError(number, f"bad entry ({exc})")
            else:
                raise TranscriptFormatError(number, f"unknown record type {kind!r}")
    return transcripts
