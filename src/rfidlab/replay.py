"""Transcript replay: re-derive every computable field and compare bit-exactly.

Works on transcripts that disclose the tag's session-start secrets (the
fixture format). Each hash, mask and alias relation is recomputed from the
disclosed secrets and the on-wire nonces; any mismatch is reported with
the name of the offending field, and so is a field the recomputation needs
that is missing or not a bit string of the protocol's width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fwcfp, lwjx
from .bits import BitString, concat_all
from .crypto import expand_mask, truncated_hash
from .session import params_from_dict
from .transcript import Transcript, TranscriptFormatError, read_jsonl


class TranscriptParamsError(ValueError):
    """A transcript's params do not build its protocol's params object."""


@dataclass
class ReplayIssue:
    field: str
    message: str
    line: int | None = None


@dataclass
class ReplayReport:
    ok: bool
    checked: int
    issues: list[ReplayIssue] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return f"pass: {self.checked} derived fields match"
        lines = [f"fail: {len(self.issues)} problem(s), {self.checked} fields checked"]
        for issue in self.issues:
            where = f" (line {issue.line})" if issue.line is not None else ""
            lines.append(f"  {issue.field}: {issue.message}{where}")
        return "\n".join(lines)


def _check(issues, checked, name, recomputed, observed):
    checked[0] += 1
    if recomputed != observed:
        issues.append(
            ReplayIssue(name, "recomputed value differs from the transcript")
        )


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


def _verify_fwcfp(
    t: Transcript, params: fwcfp.FwcfpParams, issues: list, checked: list
):
    secrets = t.secrets
    alias_bits = params.alias_bits
    hp = params.hash
    k = _bits(secrets, "secrets", "k", params.key_bits)

    flow1 = t.delivered("flow1")
    flow2 = t.delivered("flow2")
    flow3 = t.delivered("flow3")
    if flow1 is None or flow2 is None:
        issues.append(ReplayIssue("transcript", "session has no complete exchange"))
        return
    rand1 = _bits(flow1, "flow1", "rand1", params.nonce_bits)
    alias_before = _bits(secrets, "secrets", "alias_before", alias_bits)
    _check(issues, checked, "idta", alias_before, _bits(flow2, "flow2", "idta", alias_bits))
    h1 = _bits(flow2, "flow2", "h1", params.hash_bits)
    _check(issues, checked, "h1", truncated_hash(hp, k.concat(rand1)), h1)
    if flow3 is None:
        return
    rand2 = _bits(flow2, "flow2", "rand2", params.nonce_bits)
    h2 = _bits(flow3, "flow3", "h2", params.hash_bits)
    _check(issues, checked, "h2", truncated_hash(hp, k.concat(rand2)), h2)
    mask1 = expand_mask(hp, concat_all(k, rand1, rand2), alias_bits)
    mask2 = expand_mask(hp, concat_all(k, rand2, rand1), alias_bits)
    alias1 = _bits(flow3, "flow3", "a", alias_bits) ^ mask1
    alias2 = _bits(flow3, "flow3", "b", alias_bits) ^ mask2
    if "alias_after" in secrets:
        alias_after = _bits(secrets, "secrets", "alias_after", alias_bits)
        _check(issues, checked, "A", alias1, alias_after)
        _check(issues, checked, "B", alias2, alias_after)
    else:
        _check(issues, checked, "A/B", alias1, alias2)
    flow4 = t.delivered("flow4")
    if flow4 is not None:
        _check(issues, checked, "ok", True, flow4.get("ok"))


def _verify_lwjx(
    t: Transcript, params: lwjx.LwjxParams, issues: list, checked: list
):
    secrets = t.secrets
    hp = params.h
    gp = params.g
    id_ = _bits(secrets, "secrets", "id", params.bits)
    k = _bits(secrets, "secrets", "k", params.bits)

    flow1 = t.delivered("flow1")
    flow2 = t.delivered("flow2")
    flow3 = t.delivered("flow3")
    if flow1 is None or flow2 is None:
        issues.append(ReplayIssue("transcript", "session has no complete exchange"))
        return
    rr = _bits(flow1, "flow1", "rr", params.bits)
    hid = _bits(flow2, "flow2", "hid", params.hash_bits)
    _check(issues, checked, "hid", truncated_hash(hp, id_), hid)
    hk = _bits(flow2, "flow2", "hk", params.hash_bits)
    _check(issues, checked, "hk", truncated_hash(hp, k.concat(rr)), hk)
    if flow3 is None:
        return
    rt = _bits(flow2, "flow2", "rt", params.bits)
    hkt = _bits(flow3, "flow3", "hkt", params.hash_bits)
    _check(issues, checked, "hkt", truncated_hash(hp, k.concat(rt)), hkt)
    if "id_after" in secrets:
        id_after = truncated_hash(gp, id_)
        observed = _bits(secrets, "secrets", "id_after", params.bits)
        _check(issues, checked, "id_after", id_after, observed)
        observed = _bits(secrets, "secrets", "k_after", params.bits)
        _check(issues, checked, "k_after", id_after ^ rr ^ rt, observed)


_PROTOCOLS = {
    fwcfp.PROTOCOL_NAME: (fwcfp.FwcfpParams, _verify_fwcfp),
    lwjx.PROTOCOL_NAME: (lwjx.LwjxParams, _verify_lwjx),
}


def verify_transcript(t: Transcript) -> ReplayReport:
    """Re-derive t's fields; raises TranscriptParamsError on malformed params."""
    issues: list[ReplayIssue] = []
    checked = [0]
    if t.protocol not in _PROTOCOLS:
        issues.append(ReplayIssue("protocol", f"unknown protocol {t.protocol!r}"))
        return ReplayReport(ok=False, checked=0, issues=issues)
    params_cls, verify = _PROTOCOLS[t.protocol]
    try:
        params = params_from_dict(params_cls, t.params)
    except ValueError as exc:
        raise TranscriptParamsError(f"session {t.session}: {exc}") from None
    if t.secrets is None:
        issues.append(
            ReplayIssue("secrets", "transcript discloses no secrets; nothing derivable")
        )
    else:
        try:
            verify(t, params, issues, checked)
        except _Unverifiable as exc:
            issues.append(exc.issue)
    return ReplayReport(ok=not issues, checked=checked[0], issues=issues)


def replay_file(path) -> ReplayReport:
    """Verify every transcript in a JSON-lines file; a malformed file fails."""
    try:
        return verify_all(read_jsonl(path))
    except TranscriptFormatError as exc:
        issue = ReplayIssue("format", str(exc), line=exc.line_number)
    except TranscriptParamsError as exc:
        issue = ReplayIssue("params", str(exc))
    return ReplayReport(ok=False, checked=0, issues=[issue])


def verify_all(transcripts) -> ReplayReport:
    """Verify a file's worth of transcripts; an empty file fails."""
    if not transcripts:
        return ReplayReport(
            ok=False, checked=0, issues=[ReplayIssue("file", "no transcripts found")]
        )
    total = 0
    issues: list[ReplayIssue] = []
    for t in transcripts:
        report = verify_transcript(t)
        total += report.checked
        issues.extend(report.issues)
    return ReplayReport(ok=not issues, checked=total, issues=issues)
