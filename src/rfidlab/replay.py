"""Transcript replay: re-derive every computable field and compare bit-exactly.

Works on transcripts that disclose the tag's session-start secrets (the
fixture format). Each hash, mask and alias relation is recomputed from the
disclosed secrets and the on-wire nonces; any mismatch is reported with
the name of the offending field, and so is a field the recomputation needs
that is missing or not a bit string of the protocol's width, a delivered
flow's key that the flow's message does not declare, an entry of a flow
the protocol does not have, a disclosed secret it does not disclose, a
reader verdict that is missing, repeated, or disagrees with whether the
reader sent flow3 or logged a reject, and a reader verdict or reject
marker logged before flow2 reached the reader.
"""

from __future__ import annotations

from typing import Iterator

from . import fwcfp, lwjx
from .bits import BitString
from .crypto import truncated_hash
from .game import PROTOCOLS
from .records import Record
from .session import params_from_dict
from .transcript import Transcript, TranscriptFormatError, read_jsonl


class TranscriptParamsError(ValueError):
    """A transcript's params do not build its protocol's params object."""


class ReplayIssue(Record):
    field: str
    message: str
    line: int | None = None


class ReplayReport(Record):
    checked: int
    issues: list[ReplayIssue]

    def __init__(self, checked: int, issues: list[ReplayIssue] | None = None):
        self.checked = checked
        self.issues = [] if issues is None else issues

    @property
    def ok(self) -> bool:
        return not self.issues

    def describe(self) -> str:
        if self.ok:
            return f"pass: {self.checked} derived fields match"
        lines = [f"fail: {len(self.issues)} problem(s), {self.checked} fields checked"]
        for issue in self.issues:
            where = f" (line {issue.line})" if issue.line is not None else ""
            lines.append(f"  {issue.field}: {issue.message}{where}")
        return "\n".join(lines)


class _Unverifiable(Exception):
    """A field the verifier needs is missing or malformed."""

    def __init__(self, issue: ReplayIssue):
        super().__init__(issue.message)
        self.issue = issue


def _bits(fields: dict, where: str, name: str, width: int) -> BitString:
    """``fields[name]`` as a bit string of the given width; else unverifiable."""
    value = fields.get(name)
    if not (isinstance(value, BitString) and value.width == width):
        problem = "missing" if name not in fields else f"expected {width} bits, got {value!r}"
        raise _Unverifiable(ReplayIssue(f"{where}.{name}", problem))
    return value


def _exchange(flows: list) -> list:
    """The delivered flows from flow1 on; unverifiable without the first two."""
    if flows[0] is None or flows[1] is None:
        raise _Unverifiable(ReplayIssue("transcript", "session has no complete exchange"))
    return flows


# A verifier takes the disclosed secrets and the delivered fields of each of
# the protocol's flows (None for a flow that did not arrive). It yields
# (field, recomputed, observed) for every relation it checks, and raises
# _Unverifiable when a field it needs is unusable.
def _verify_fwcfp(secrets: dict, flows: list, params: fwcfp.FwcfpParams) -> Iterator[tuple]:
    alias_bits = params.alias_bits
    hp = params.hash
    k = _bits(secrets, "secrets", "k", params.key_bits)
    flow1, flow2, flow3, flow4 = _exchange(flows)
    rand1 = _bits(flow1, "flow1", "rand1", params.nonce_bits)
    alias_before = _bits(secrets, "secrets", "alias_before", alias_bits)
    yield "idta", alias_before, _bits(flow2, "flow2", "idta", alias_bits)
    h1 = _bits(flow2, "flow2", "h1", params.hash_bits)
    n, k, rand1 = params.nonce_bits, k.value, rand1.value
    width = params.key_bits + n
    yield "h1", truncated_hash(hp, width, (k << n) | rand1), h1.value
    if flow3 is None:
        return
    rand2 = _bits(flow2, "flow2", "rand2", params.nonce_bits).value
    h2 = _bits(flow3, "flow3", "h2", params.hash_bits)
    yield "h2", truncated_hash(hp, width, (k << n) | rand2), h2.value
    mask1, mask2 = fwcfp.alias_masks(params, k, rand1, rand2)
    alias1 = _bits(flow3, "flow3", "a", alias_bits).value ^ mask1
    alias2 = _bits(flow3, "flow3", "b", alias_bits).value ^ mask2
    if "alias_after" in secrets:
        alias_after = _bits(secrets, "secrets", "alias_after", alias_bits).value
        yield "A", alias1, alias_after
        yield "B", alias2, alias_after
    else:
        yield "A/B", alias1, alias2
    if flow4 is not None:
        # only JSON true: 1 and 1.0 compare equal to True
        yield "ok", True, flow4.get("ok") is True


def _verify_lwjx(secrets: dict, flows: list, params: lwjx.LwjxParams) -> Iterator[tuple]:
    hp = params.h
    gp = params.g
    id_ = _bits(secrets, "secrets", "id", params.bits)
    k = _bits(secrets, "secrets", "k", params.bits)
    flow1, flow2, flow3 = _exchange(flows)
    rr = _bits(flow1, "flow1", "rr", params.bits).value
    n, id_, k = params.bits, id_.value, k.value
    hid = _bits(flow2, "flow2", "hid", params.hash_bits)
    yield "hid", truncated_hash(hp, n, id_), hid.value
    hk = _bits(flow2, "flow2", "hk", params.hash_bits)
    yield "hk", truncated_hash(hp, 2 * n, (k << n) | rr), hk.value
    if flow3 is None:
        return
    rt = _bits(flow2, "flow2", "rt", params.bits).value
    hkt = _bits(flow3, "flow3", "hkt", params.hash_bits)
    yield "hkt", truncated_hash(hp, 2 * n, (k << n) | rt), hkt.value
    if "id_after" in secrets:
        id_after = truncated_hash(gp, n, id_)
        observed = _bits(secrets, "secrets", "id_after", params.bits)
        yield "id_after", id_after, observed.value
        observed = _bits(secrets, "secrets", "k_after", params.bits)
        yield "k_after", id_after ^ rr ^ rt, observed.value


_FLOWS = ("flow1", "flow2", "flow3", "flow4")

# replay's own part of each protocol: the rest is its table in game.PROTOCOLS
_VERIFIERS = {fwcfp.PROTOCOL_NAME: _verify_fwcfp, lwjx.PROTOCOL_NAME: _verify_lwjx}


def verify_transcript(t: Transcript) -> ReplayReport:
    """Re-derive t's fields; raises TranscriptParamsError on malformed params.

    The protocol's params class, flow messages and disclosed secrets come
    from its table in ``game.PROTOCOLS``. The verifier's issues come
    first. Then, each giving one issue and adding nothing to ``checked``:
    each delivered flow's keys that its message does not declare, flows
    in order and keys sorted; each flow the log has entries of that the
    protocol does not have, in the order of their first entries; each
    disclosed secret the protocol does not disclose, sorted; and, when
    flow2 reached the reader, each way the reader's verdict disagrees with
    the reader's own entries, then each reader verdict or reject marker
    logged before the log's first flow2 entry.
    """
    protocol = PROTOCOLS.get(t.protocol)
    if protocol is None:
        return ReplayReport(0, [ReplayIssue("protocol", f"unknown protocol {t.protocol!r}")])
    try:
        params = params_from_dict(protocol.params, t.params)
    except ValueError as exc:
        raise TranscriptParamsError(f"session {t.session}: {exc}") from None
    secrets = t.secrets
    if secrets is None:
        issue = ReplayIssue("secrets", "transcript discloses no secrets; nothing derivable")
        return ReplayReport(0, [issue])
    messages = protocol.flows
    names = _FLOWS[: len(messages)]
    flows, reader_sent, reader_verdicts, early = t.delivered_flows()
    delivered = []
    for name in names:
        delivered.append(flows.pop(name, None))  # leaves the flows it does not have
    checked = 0
    issues: list[ReplayIssue] = []
    try:
        for name, recomputed, observed in _VERIFIERS[t.protocol](secrets, delivered, params):
            checked += 1
            if recomputed != observed:
                issues.append(ReplayIssue(name, "recomputed value differs from the transcript"))
    except _Unverifiable as exc:
        issues.append(exc.issue)
    for name, fields, message in zip(names, delivered, messages):
        if fields is not None and not message._names.issuperset(fields):
            issues.extend(
                ReplayIssue(f"{name}.{key}", "not a field of this flow")
                for key in sorted(fields.keys() - message._names)
            )
    if flows:
        issues.extend(ReplayIssue(name, "not a flow of this protocol") for name in flows)
    if not protocol.disclosed.issuperset(secrets):
        issues.extend(
            ReplayIssue(f"secrets.{key}", "not a secret of this protocol")
            for key in sorted(secrets.keys() - protocol.disclosed)
        )
    if delivered[1] is not None:  # flow2 reached the reader
        issues.extend(_reader_verdict_issues(reader_sent, reader_verdicts))
        if early:
            issues.extend(
                ReplayIssue("verdict.reader", "logged before flow2 reached the reader")
                for _ in range(early)
            )
    return ReplayReport(checked, issues)


def _reader_verdict_issues(sent: set, verdicts: list) -> list[ReplayIssue]:
    """How the reader's verdict disagrees with the reader's own entries.

    A reader that received flow2 logs exactly one verdict, which accepts
    exactly when the reader sent flow3 and rejects exactly when it logged
    a "reject" marker. Each rule it breaks is one issue.
    """
    if len(verdicts) != 1:
        count = "no reader verdict" if not verdicts else f"{len(verdicts)} reader verdicts"
        return [ReplayIssue("verdict.reader", f"{count} after flow2 reached the reader")]
    outcome = verdicts[0].get("outcome")
    issues = []
    if (outcome == "accept") != ("flow3" in sent):
        problem = (
            "accepts, but the reader sent no flow3"
            if outcome == "accept"
            else "the reader sent flow3, but the verdict does not accept"
        )
        issues.append(ReplayIssue("verdict.reader", problem))
    if (outcome == "reject") != ("reject" in sent):
        problem = (
            "rejects, but the reader logged no reject"
            if outcome == "reject"
            else "the reader logged a reject, but the verdict does not reject"
        )
        issues.append(ReplayIssue("verdict.reader", problem))
    return issues


def replay_file(path) -> ReplayReport:
    """Verify every transcript in a JSON-lines file; a malformed file fails.

    The file is read one transcript at a time (``verify_all``), so replay
    holds one parsed transcript and the issues found so far, not the
    file. A format error surfaces when the reading reaches its line.
    """
    try:
        return verify_all(read_jsonl(path))
    except TranscriptFormatError as exc:
        issue = ReplayIssue("format", str(exc), line=exc.line_number)
    except TranscriptParamsError as exc:
        issue = ReplayIssue("params", str(exc))
    return ReplayReport(0, [issue])


def verify_all(transcripts) -> ReplayReport:
    """Verify a file's worth of transcripts as they arrive; an empty file fails.

    Each transcript is verified and dropped before the next is taken, so
    over ``read_jsonl`` this holds one parsed transcript at a time. After
    a TranscriptParamsError the rest is read, unverified, before it is
    raised again, so a format error later in the file still wins, as it
    does when a whole file is parsed before any transcript is verified.
    """
    transcripts = iter(transcripts)
    count = total = 0
    issues: list[ReplayIssue] = []
    try:
        for report in map(verify_transcript, transcripts):
            count += 1
            total += report.checked
            issues.extend(report.issues)
    except TranscriptParamsError:
        for _ in transcripts:
            pass
        raise
    if not count:
        return ReplayReport(0, [ReplayIssue("file", "no transcripts found")])
    return ReplayReport(total, issues)
