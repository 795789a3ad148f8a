"""Session transcripts and their JSON-lines serialization.

A transcript is the ordered record of everything that crossed the channel
in one protocol session: the flows, any adversary tampering or blocking
events, and the parties' verdicts. Verdict entries carry the detailed
internal reason and are experimenter-side annotations; on the wire every
rejection looks the same.

A transcript records lazily, since most are never read: the session
driver logs each message or verdict object it delivers, and the reader
each parsed entry line's fields dict, with flow, sender and note. The
log is a transcript's one store. A read of an entry's fields builds the
dict and puts it in the log in its source's place, so it is built once;
each read of ``entries`` builds a new list of entries over those dicts,
which the transcript does not keep. The params dict is built on first
read. Writing and replay read the log and build no entry. Disclosed
secrets are recorded at once, since the tag changes after the session.

On disk a transcript is one meta line followed by one JSON object per
entry, with every BitString in canonical "<width>:<hex>" text: the bytes
of ``json.dumps(doc, sort_keys=True)``, joined from fixed pieces with no
doc built (see ``transcript_to_lines``). The reader turns each field
string that is a canonical literal into a BitString, in the parsed
fields dict itself, through ``bits.literal_bits``, the function that
``BitString.parse`` uses too; every other value stays as JSON gave it.

``read_jsonl`` reads a file one transcript at a time: it yields each
transcript once the next meta line, or the end of the file, shows that
its entries are complete, and keeps only that one. Replay verifies and
drops each transcript before the next is read, so it holds one parsed
transcript, not the file. Names (flow, sender, note, keys, text values)
are kept as each line's parse gave them, so a caller that keeps a whole
parsed file keeps a copy of each per line. A malformed line raises its
error when the reading reaches it, after the transcripts before it have
been yielded.
"""

from __future__ import annotations

import json
from _json import encode_basestring_ascii, make_encoder
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .bits import BitString, literal_bits
from .crypto import HASH_NAME

SCHEMA_VERSION = 1

# the C encoder that json.dumps(doc, sort_keys=True) builds on every call,
# built once: (markers, default, string encoder, indent, key separator, item
# separator, sort_keys, skipkeys, allow_nan). It writes each BitString as its
# canonical literal; markers=None drops the cycle check, as no transcript
# holds a cycle. _ITERENCODE(value, 0) gives the pieces of its JSON text.
_ITERENCODE = make_encoder(
    None, BitString.render, encode_basestring_ascii, None, ": ", ", ", True, False, True
)
# the scanner under json.loads: (document, end index), or StopIteration
# when no JSON value starts the text
_SCAN = json.JSONDecoder().scan_once


_NOT_FLOWS = ("reject", "verdict")  # the entry names that are not flows


class TranscriptEntry(NamedTuple):
    flow: str  # "flow1".."flow4", "reject" or "verdict"
    sender: str  # "reader", "tag" or "adversary"
    fields: dict
    note: str | None = None  # e.g. "tampered", "blocked"


class Transcript:
    """One session's transcript: its entries in order, its params and secrets.

    ``add`` is the only way entries come in, from the session driver and
    from ``read_jsonl`` alike: it logs what it is given, and the log is
    the one store. ``entries`` and ``delivered`` build each fields dict
    they read once, in the log's slot for it; ``entries`` returns a new
    list of read-only entries on each read. ``params`` may likewise be a
    protocol's params object; its ``to_dict()`` is built on first read.
    ``write_jsonl`` builds no entry: it writes straight from the log.
    """

    __slots__ = ("session", "protocol", "secrets", "_params", "_log")

    def __init__(
        self,
        session: str,
        protocol: str,
        params,
        secrets: dict | None = None,  # disclosed only in fixtures, never in games
    ):
        self.session = session
        self.protocol = protocol
        self.secrets = secrets
        self._params = params
        # flow, sender, fields source and note of each entry added, four
        # slots apiece; a source is replaced by its fields dict once read
        self._log = []

    def add(self, flow: str, sender: str, fields, note: str | None = None):
        """Append an entry and return ``fields``, the source it logged.

        ``fields`` is the entry's fields dict, None for no fields, or a
        message or verdict whose ``fields()`` gives them when they are
        read. Messages and verdicts are frozen records, so that is the
        dict that ``fields()`` would give now. Returning it lets the
        session driver use ``add`` as the delivery of a flow no adversary
        sits on.
        """
        self._log += (flow, sender, fields, note)
        return fields

    @property
    def entries(self) -> list[TranscriptEntry]:
        """A new list of the entries; their fields dicts are the log's own."""
        log = self._log
        for i in range(2, len(log), 4):
            log[i] = _fields(log[i])
        it = iter(log)
        return [TranscriptEntry(*entry) for entry in zip(it, it, it, it)]

    @property
    def params(self):
        """The params dict: a params object's ``to_dict()``, built on first read."""
        if hasattr(self._params, "to_dict"):
            self._params = self._params.to_dict()
        return self._params

    def delivered(self, flow: str) -> dict | None:
        """Fields of the named flow as the receiving party saw them.

        When an adversary entry for the flow exists it supersedes the
        honest sender's entry; a "blocked" entry means nothing arrived.
        Only this entry's fields are built: the dict takes its source's
        place in the log, so ``entries`` holds this same dict.
        """
        log = self._log
        for i in range(len(log) - 4, -1, -4):
            if log[i] == flow:
                if log[i + 3] == "blocked":
                    return None
                fields = log[i + 2] = _fields(log[i + 2])
                return fields
        return None

    def delivered_flows(self) -> tuple[dict[str, dict | None], set[str], list[dict], int]:
        """``delivered`` of every flow the log has entries of, and the reader's own, in one pass.

        First, flow name -> fields or None, in the order of each flow's
        first entry; "reject" and "verdict" entries are not flows. Then
        the names of the flows and "reject" markers the reader logged, the
        fields of each reader verdict, in order, and how many reader
        verdicts and "reject" markers come before the first flow2 entry.
        As with ``delivered``, only the fields returned are built, each in
        its log slot.
        """
        log = self._log
        last = {}  # flow name -> index of its last entry
        sent = set()
        verdicts = []
        early = 0
        for i in range(0, len(log), 4):
            flow = log[i]
            last[flow] = i
            if log[i + 1] == "reader":
                if flow == "verdict":
                    fields = log[i + 2] = _fields(log[i + 2])
                    verdicts.append(fields)
                else:
                    sent.add(flow)
                if flow in _NOT_FLOWS and "flow2" not in last:
                    early += 1
        flows = {}
        for flow, i in last.items():
            if flow in _NOT_FLOWS:
                continue
            if log[i + 3] == "blocked":
                flows[flow] = None
            else:
                flows[flow] = log[i + 2] = _fields(log[i + 2])
        return flows, sent, verdicts, early

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.session, self.protocol, self.params, self.entries, self.secrets) == (
            other.session, other.protocol, other.params, other.entries, other.secrets
        )

    __hash__ = None  # mutable and compared by value, as a mutable record

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(session={self.session!r}, protocol={self.protocol!r}, "
            f"params={self.params!r}, entries={self.entries!r}, secrets={self.secrets!r})"
        )


def _fields(source) -> dict:
    """The fields of an entry from their source: a dict as it is, {} for None, else ``fields()``."""
    if source is None:
        return {}
    if isinstance(source, dict):
        return source
    return source.fields()


# A params object's document as JSON text, encoded once per distinct object,
# as session._build_params builds each parsed one once. Equal objects share
# it, as their widths are ints (params_from_dict reads back no other).
@lru_cache(maxsize=64)
def _params_text(params) -> str:
    return "".join(_ITERENCODE(params.to_dict(), 0))


def _decode_fields(fields: dict) -> dict:
    """``fields`` itself, each string of a literal's shape made a BitString.

    Any other value, and every key, is kept as JSON parsed it.
    """
    if not isinstance(fields, dict):
        raise ValueError(f"expected an object of fields, got {fields!r}")
    for k, v in fields.items():
        if isinstance(v, str):
            bits = literal_bits(v)
            if bits is not None:
                fields[k] = bits
    return fields


def _text(doc: dict, key: str) -> str:
    value = doc[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def transcript_to_lines(transcript: Transcript) -> list[str]:
    """The transcript's JSON lines, written from its log.

    Each line is joined from fixed pieces in the key order of
    ``json.dumps(doc, sort_keys=True)``, which wrote the committed
    fixtures and pinned digests, so their bytes stay the same: ``hash``,
    ``params``, ``protocol``, ``schema``, [``secrets``], ``session``,
    ``type`` on the meta line; ``fields``, ``flow``, [``note``],
    ``sender``, ``session``, ``type`` on an entry line. Session,
    protocol, flow, sender and note are ``str`` (every driver passes
    ``str``; ``read_jsonl`` requires it) and go through the C string
    encoder, the session once per transcript. Only the fields, secrets
    and params dicts go through ``_ITERENCODE``, and a params object's
    document once per distinct object. The transcript builds no entries.
    """
    encode = encode_basestring_ascii
    join = "".join
    session = encode(transcript.session)
    params = transcript._params
    params = _params_text(params) if hasattr(params, "to_dict") else join(_ITERENCODE(params, 0))
    secrets = transcript.secrets
    secrets = "" if secrets is None else f', "secrets": {join(_ITERENCODE(secrets, 0))}'
    lines = [
        f'{{"hash": "{HASH_NAME}", "params": {params}, "protocol": {encode(transcript.protocol)}'
        f', "schema": {SCHEMA_VERSION}{secrets}, "session": {session}, "type": "meta"}}'
    ]
    tail = f', "session": {session}, "type": "entry"}}'
    it = iter(transcript._log)
    for flow, sender, source, note in zip(it, it, it, it):
        note = "" if note is None else f', "note": {encode(note)}'
        lines.append(
            f'{{"fields": {join(_ITERENCODE(_fields(source), 0))}, "flow": {encode(flow)}{note}'
            f', "sender": {encode(sender)}{tail}'
        )
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


def read_jsonl(path) -> Iterator[Transcript]:
    """Parse a transcript file, yielding one transcript at a time.

    A transcript is yielded once its last entry line has been read: at
    the next meta line, or at the end of the file. The reader holds only
    the transcript being read, so a caller that drops each one it is
    given holds one parsed transcript, not the file. The file is opened
    on the first ``next()``, and a malformed line raises
    TranscriptFormatError, naming its line number, when the reading
    reaches it, after the transcripts before it have been yielded.
    """
    current: Transcript | None = None  # that of the last meta line
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    doc, end = _SCAN(raw, 0)
                except StopIteration:
                    # json.loads rejects a leading U+FEFF before parsing; no
                    # JSON value starts with it, so only a failed parse looks
                    msg = "Expecting value"
                    if raw.startswith("\ufeff"):
                        msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
                    raise TranscriptFormatError(number, f"invalid JSON ({msg})")
                except json.JSONDecodeError as exc:
                    raise TranscriptFormatError(number, f"invalid JSON ({exc.msg})")
                except RecursionError:
                    raise TranscriptFormatError(number, "invalid JSON (nested too deeply)") from None
                except ValueError:
                    # the only other ValueError of a parse: an integer literal
                    # over the interpreter's digit limit
                    raise TranscriptFormatError(number, "invalid JSON (integer too long)") from None
                if end != len(raw):
                    # the line is stripped, so what is left is not whitespace
                    raise TranscriptFormatError(number, "invalid JSON (Extra data)")
                if not isinstance(doc, dict):
                    raise TranscriptFormatError(number, "not a JSON object")
                kind = doc.get("type")
                if kind == "meta":
                    schema = doc.get("schema")
                    if type(schema) is not int or schema != SCHEMA_VERSION:
                        raise TranscriptFormatError(number, f"unsupported schema {schema!r}")
                    try:
                        meta = Transcript(
                            session=_text(doc, "session"),
                            protocol=_text(doc, "protocol"),
                            params=doc["params"],
                            secrets=_decode_fields(doc["secrets"]) if "secrets" in doc else None,
                        )
                    except (KeyError, ValueError) as exc:
                        raise TranscriptFormatError(number, f"bad meta line ({exc})")
                    if current is not None:
                        yield current
                    current = meta
                elif kind == "entry":
                    if current is None:
                        raise TranscriptFormatError(number, "entry before any meta line")
                    try:
                        if doc["session"] != current.session:
                            raise ValueError(f"session {doc['session']!r} is not the meta line's")
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
    if current is not None:
        yield current


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
