import importlib.util
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_session_digests import FWCFP_CASES, LWJX_CASES, SEED

from rfidlab import fwcfp, lwjx, session
from rfidlab.bits import BitString
from rfidlab.cli import EXIT_CONFIG, EXIT_THRESHOLD, main
from rfidlab.replay import TranscriptParamsError, replay_file, verify_transcript
from rfidlab.rng import Rng
from rfidlab.session import Message, RejectMessage, params_from_dict
from rfidlab.snapshots import (
    SnapshotError,
    db_from_doc,
    db_to_doc,
    fwcfp_db_from_doc,
    fwcfp_db_to_doc,
    load_db,
    lwjx_db_from_doc,
    lwjx_db_to_doc,
    snapshot_db,
)
from rfidlab.transcript import (
    Transcript,
    TranscriptEntry,
    TranscriptFormatError,
    read_jsonl,
    transcript_to_lines,
    write_jsonl,
)

FIXTURES = Path(__file__).parent / "fixtures"
GENERATOR = Path(__file__).parent.parent / "scripts" / "generate_fixtures.py"
EXTRA = "not a field of this flow"
NO_FLOW = "not a flow of this protocol"
NO_SECRET = "not a secret of this protocol"


def fwcfp_disclosed_session(seed=5, interpose=None):
    rng = Rng(seed)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    return fwcfp.run_honest_session(tag, db, rng, interpose=interpose, disclose_secrets=True)


def lwjx_disclosed_session(seed=5, interpose=None):
    rng = Rng(seed)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    tag = db.provision(rng)
    return lwjx.run_honest_session(tag, db, rng, interpose=interpose, disclose_secrets=True)


def retyped(line, **values):
    """One transcript line with some of its top-level values replaced."""
    doc = json.loads(line)
    doc.update(values)
    return json.dumps(doc)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        result = fwcfp_disclosed_session()
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [result.transcript])
        (loaded,) = read_jsonl(path)
        assert loaded.session == result.transcript.session
        assert loaded.secrets == result.transcript.secrets
        assert [e.flow for e in loaded.entries] == [
            e.flow for e in result.transcript.entries
        ]
        assert loaded.delivered("flow3") == result.transcript.delivered("flow3")

    def test_fields_use_canonical_text(self):
        result = fwcfp_disclosed_session()
        lines = transcript_to_lines(result.transcript)
        doc = json.loads(lines[1])
        assert doc["type"] == "entry"
        parsed = BitString.parse(doc["fields"]["rand1"])
        assert parsed == result.transcript.delivered("flow1")["rand1"]

    def test_game_transcripts_have_no_secrets_line(self):
        rng = Rng(1)
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        tag = db.provision_tag(rng)
        result = fwcfp.run_honest_session(tag, db, rng)
        meta = json.loads(transcript_to_lines(result.transcript)[0])
        assert "secrets" not in meta

    def test_delivered_prefers_the_tampered_copy(self):
        t = Transcript(session="s", protocol="fwcfp", params={})
        t.add("flow1", "reader", {"rand1": BitString(8, 1)})
        t.add("flow1", "adversary", {"rand1": BitString(8, 2)}, note="tampered")
        assert t.delivered("flow1")["rand1"] == BitString(8, 2)

    def test_delivered_sees_blocks(self):
        t = Transcript(session="s", protocol="fwcfp", params={})
        t.add("flow3", "reader", {"h2": BitString(8, 1)})
        t.add("flow3", "adversary", {}, note="blocked")
        assert t.delivered("flow3") is None

    def test_repr_lists_the_entries_as_named_tuples(self):
        t = Transcript(session="s", protocol="fwcfp", params={"bits": 8})
        t.add("flow1", "reader", {"rand1": BitString(8, 1)})
        assert repr(t) == (
            "Transcript(session='s', protocol='fwcfp', params={'bits': 8}, entries="
            "[TranscriptEntry(flow='flow1', sender='reader', fields={'rand1': "
            f"{BitString(8, 1)!r}}}, note=None)], secrets=None)"
        )


BRANCHES = [("fwcfp", case) for case in sorted(FWCFP_CASES)] + [
    ("lwjx", case) for case in sorted(LWJX_CASES)
]


def recorded(protocol, case):
    """A new, unread transcript of one branch of the session driver."""
    rng = Rng(SEED)
    if protocol == "fwcfp":
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        tag = db.provision_tag(rng)
        interpose = FWCFP_CASES[case]
    else:
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
        tag = db.provision(rng)
        interpose = LWJX_CASES[case]
    module = fwcfp if protocol == "fwcfp" else lwjx
    result = module.run_honest_session(tag, db, rng, interpose=interpose, disclose_secrets=True)
    return result.transcript


@pytest.mark.parametrize("protocol, case", BRANCHES, ids=[f"{p}-{c}" for p, c in BRANCHES])
class TestRecordedMatchesLoaded:
    """A transcript the driver records lazily reads as its written copy does."""

    def test_equal_both_ways(self, tmp_path, protocol, case):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [recorded(protocol, case)])
        (loaded,) = read_jsonl(path)
        assert loaded == recorded(protocol, case)
        assert recorded(protocol, case) == loaded

    def test_delivered_agrees(self, tmp_path, protocol, case):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [recorded(protocol, case)])
        (loaded,) = read_jsonl(path)
        t = recorded(protocol, case)
        for flow in ("flow1", "flow2", "flow3", "flow4"):
            assert t.delivered(flow) == loaded.delivered(flow), flow
        assert t == loaded
        for flow in ("flow1", "flow2", "flow3", "flow4"):
            assert t.delivered(flow) == loaded.delivered(flow), flow
        # every flow's delivered fields in one pass, each built in its log slot
        fresh = recorded(protocol, case)
        flows, sent, verdicts, early = fresh.delivered_flows()
        assert (flows, sent, verdicts, early) == loaded.delivered_flows()
        assert early == 0  # the driver logs no reader verdict or reject before flow2
        reader = [e for e in fresh.entries if e.sender == "reader"]
        assert sent == {e.flow for e in reader if e.flow != "verdict"}
        assert verdicts == [e.fields for e in reader if e.flow == "verdict"]
        names = [e.flow for e in fresh.entries if e.flow not in ("reject", "verdict")]
        assert list(flows) == list(dict.fromkeys(names))
        for flow, fields in flows.items():
            assert fresh.delivered(flow) is fields, flow

    def test_lines_from_the_log_equal_lines_from_entries(self, protocol, case):
        t = recorded(protocol, case)
        from_log = transcript_to_lines(t)
        delivered = [t.delivered(flow) for flow in ("flow1", "flow2", "flow3", "flow4")]
        assert transcript_to_lines(t) == from_log
        for fields in delivered:
            if fields is not None:
                fields["extra"] = 1
        changed = transcript_to_lines(t)
        assert sum('"extra": 1' in line for line in changed) == 4 - delivered.count(None)
        assert t.entries
        assert transcript_to_lines(t) == changed

    def test_add_after_a_read_lands_in_order(self, tmp_path, protocol, case):
        t = recorded(protocol, case)
        shape = [(e.flow, e.sender, e.note) for e in t.entries]
        t.add("verdict", "adversary", {"guess": 1}, note="late")
        assert [(e.flow, e.sender, e.note) for e in t.entries] == shape + [
            ("verdict", "adversary", "late")
        ]
        assert t.entries[-1].fields == {"guess": 1}
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [t])
        assert list(read_jsonl(path)) == [t]

    def test_entries_are_read_only_views_of_the_log(self, protocol, case):
        t = recorded(protocol, case)
        with pytest.raises(AttributeError):
            t.entries[0].note = "x"
        assert t.entries[0].note is None
        # a change to an entry's fields is one to the log's dict
        last = {e.flow: e for e in t.entries}  # the entry that each flow delivered
        for flow in ("flow1", "flow2", "flow3", "flow4"):
            if flow in last and last[flow].note != "blocked":
                last[flow].fields["extra"] = flow
                assert t.delivered(flow)["extra"] == flow


def mixed_transcripts():
    """Both protocols, with tampered, blocked and rejected sessions."""
    rng = Rng(8)
    f_db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    f_tag = f_db.provision_tag(rng)
    l_db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    l_tag = l_db.provision(rng)
    mask = BitString(f_db.params.alias_bits, 1)

    def tamper(flow, message):
        if flow == "flow3":
            return fwcfp.Flow3(h2=message.h2, a=message.a ^ mask, b=message.b ^ mask)
        return message

    results = [
        fwcfp.run_honest_session(f_tag, f_db, rng, disclose_secrets=True),
        lwjx.run_honest_session(l_tag, l_db, rng, disclose_secrets=True),
        fwcfp.run_honest_session(f_tag, f_db, rng, interpose=tamper, disclose_secrets=True),
        lwjx.run_honest_session(l_tag, l_db, rng, drop_flow3=True, disclose_secrets=True),
        fwcfp.run_honest_session(f_tag, f_db, rng),
    ]
    return [result.transcript for result in results]


class TestMixedFile:
    """One file of both protocols' honest, tampered, blocked and rejected sessions."""

    def test_round_trip_keeps_notes_and_rejects(self, tmp_path):
        written = mixed_transcripts()
        path = tmp_path / "mixed.jsonl"
        write_jsonl(path, written)
        loaded = list(read_jsonl(path))
        assert loaded == written
        notes = {e.note for t in loaded for e in t.entries}
        assert {"tampered", "blocked"} <= notes
        assert any(e.flow == "reject" for t in loaded for e in t.entries)


def bits(value):
    return BitString(8, value)


MESSAGES = [
    fwcfp.Flow1(bits(1)),
    fwcfp.Flow2(idta=bits(2), h1=bits(3), rand2=bits(4)),
    fwcfp.Flow3(h2=bits(5), a=bits(6), b=bits(7)),
    fwcfp.Flow4(),
    lwjx.Flow1(bits(8)),
    lwjx.Flow2(hid=bits(9), hk=bits(10), rt=bits(11)),
    lwjx.Flow3(bits(12)),
    RejectMessage(),
]


class TestMessageFields:
    """A message's transcript fields are its record fields."""

    def test_every_message_class_is_covered(self):
        classes = {
            value
            for module in (fwcfp, lwjx, session)
            for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Message) and value is not Message
        }
        assert classes == {type(m) for m in MESSAGES}

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: f"{type(m).__module__[8:]}-{type(m).__name__}"
    )
    def test_fields_are_a_new_dict_in_declaration_order(self, message):
        expected = {name: getattr(message, name) for name in message._fields}
        fields = message.fields()
        assert list(fields.items()) == list(expected.items())
        fields["extra"] = bits(0)
        for name in expected:
            fields[name] = None
        assert message.fields() == expected
        assert {name: getattr(message, name) for name in message._fields} == expected


def with_field(tmp_path, value):
    """The FWCFP fixture with line 2's fields replaced by {"x": value}."""
    lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    doc["fields"] = {"x": value}
    lines[1] = json.dumps(doc)
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def reference_render(bits):
    digits = (bits.width + 3) // 4
    return f"{bits.width}:{bits.value:0{digits}x}" if bits.width else "0:"


def reference_lines(t):
    """The transcript lines as json.dumps(..., sort_keys=True) writes them."""

    def encode(fields):
        return {
            k: reference_render(v) if isinstance(v, BitString) else v
            for k, v in fields.items()
        }

    meta = {
        "type": "meta",
        "schema": 1,
        "session": t.session,
        "protocol": t.protocol,
        "hash": "sha256",
        "params": t.params,
    }
    if t.secrets is not None:
        meta["secrets"] = encode(t.secrets)
    lines = [json.dumps(meta, sort_keys=True)]
    for e in t.entries:
        doc = {
            "type": "entry",
            "session": t.session,
            "flow": e.flow,
            "sender": e.sender,
            "fields": encode(e.fields),
        }
        if e.note is not None:
            doc["note"] = e.note
        lines.append(json.dumps(doc, sort_keys=True))
    return lines


LOOKS_LIKE_BITS = re.compile(r"^\d+:[0-9a-f]*$")
BITS = st.integers(0, 300).flatmap(
    lambda w: st.integers(0, (1 << w) - 1).map(lambda v: BitString(w, v))
)
FIELD_VALUES = (
    BITS
    | st.text().filter(lambda s: not LOOKS_LIKE_BITS.match(s))
    | st.integers()
    | st.booleans()
    | st.none()
)
FIELDS = st.dictionaries(st.text(max_size=8), FIELD_VALUES, max_size=4)
ENTRIES = st.builds(
    TranscriptEntry, st.text(max_size=8), st.text(max_size=8), FIELDS,
    st.none() | st.text(max_size=8),
)


def transcript_of(entries, **meta):
    """A transcript of the given meta values, its entries added in order."""
    t = Transcript(**meta)
    for e in entries:
        t.add(e.flow, e.sender, e.fields, e.note)
    return t


# Params objects over drawn widths, up to 300 bits: the writer encodes an
# object's document once and reuses the text for every equal object.
WIDTHS = st.integers(1, 300)
FWCFP_WIDTHS = st.tuples(WIDTHS, WIDTHS, WIDTHS, WIDTHS, WIDTHS).filter(
    lambda w: (w[0] + w[4]) % 2 == 0  # id_bits + rand0_bits is even
)
PARAMS_OBJECTS = FWCFP_WIDTHS.map(lambda w: fwcfp.FwcfpParams(*w)) | st.builds(
    lwjx.LwjxParams, WIDTHS, WIDTHS, st.integers(0, 9)
)
TRANSCRIPTS = st.builds(
    transcript_of,
    st.lists(ENTRIES, max_size=5),
    session=st.text(max_size=8),
    protocol=st.text(max_size=8),
    # a shared object is the same one in every transcript of a drawn list
    params=st.dictionaries(st.text(max_size=8), st.integers(), max_size=3)
    | PARAMS_OBJECTS
    | st.shared(PARAMS_OBJECTS, key="params"),
    secrets=st.none() | FIELDS,
)


class TestDecodeSemantics:
    """Which field values decode to bit strings, stay text, or fail the line."""

    @pytest.mark.parametrize("text", ["8:ff", "0:", "16:00ff", "1:1"])
    def test_canonical_literals_become_bit_strings(self, tmp_path, text):
        t = list(read_jsonl(with_field(tmp_path, text)))[0]
        assert t.entries[0].fields["x"] == BitString.parse(text)

    @pytest.mark.parametrize("text", ["8:FF", " 8:ff", "+8:ff", "accept"])
    def test_other_text_stays_a_string(self, tmp_path, text):
        t = list(read_jsonl(with_field(tmp_path, text)))[0]
        assert t.entries[0].fields["x"] == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("08:ff", "not a canonical bit string literal: '08:ff'"),
            ("\u0663:f", "not a canonical bit string literal: '\u0663:f'"),
            ("8:ff\n", "not a canonical bit string literal: '8:ff\\n'"),
            ("8:f", "expected 2 hex digits for width 8, got 1"),
            ("4:", "expected 1 hex digits for width 4, got 0"),
            ("1:2", "value 0x2 does not fit in 1 bits"),
        ],
        ids=["leading-zero", "arabic-digit", "trailing-newline", "short", "empty", "too-big"],
    )
    def test_non_canonical_literals_fail_the_line(self, tmp_path, text, message):
        with pytest.raises(TranscriptFormatError) as caught:
            list(read_jsonl(with_field(tmp_path, text)))
        assert caught.value.line_number == 2
        assert str(caught.value) == f"line 2: bad entry ({message})"

    @settings(max_examples=200, deadline=None)
    @given(transcripts=st.lists(TRANSCRIPTS, min_size=1, max_size=3))
    def test_lines_and_round_trip_match_the_reference(self, transcripts):
        # written before the reference reads t.params, which turns a params
        # object into its dict for good, so the writer sees the object
        lines = [transcript_to_lines(t) for t in transcripts]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            write_jsonl(path, transcripts)
            text = path.read_text(encoding="utf-8")
            references = [reference_lines(t) for t in transcripts]
            assert lines == references
            assert text == "".join(line + "\n" for reference in references for line in reference)
            assert list(read_jsonl(path)) == transcripts


# the regex loader's rule for a field string, kept as an independent reference
REFERENCE_SHAPE = re.compile(r"(0|[1-9][0-9]*):([0-9a-f]*)\Z|\d+:[0-9a-f]*$")


def reference_literal(text):
    """The BitString the text spells, the text itself, or a ValueError."""
    match = REFERENCE_SHAPE.match(text)
    if match is None:
        return text
    width_part, hex_part = match.groups()
    if width_part is None:
        raise ValueError(f"not a canonical bit string literal: {text!r}")
    width = int(width_part)
    digits = (width + 3) // 4
    if len(hex_part) != digits:
        raise ValueError(f"expected {digits} hex digits for width {width}, got {len(hex_part)}")
    return BitString(width, int(hex_part, 16) if hex_part else 0)


# ASCII digits, Arabic-Indic, fullwidth and NKo decimal digits (\d matches
# them), superscripts (\d does not), and signs, spaces, "x", "_" and ":"
WIDTH_CHARS = "0123456789" "٣٠" "１０" "߁" "²¹⁰" "+- x_:"
HEX_CHARS = "0123456789abcdef"
# what int(text, 16) accepts besides lowercase hex, and a few more
SPOILERS = "ABCDEF_x +-g:\n\r"


@st.composite
def near_literals(draw):
    """Text at and around the "<width>:<hex>" grammar: a literal with up to two changes."""
    width = draw(
        st.integers(0, 1100)
        | st.sampled_from([0, 1, 3, 4, 1023, 1024, 1025, 1028, 4096])
        | st.integers(1101, 10**30)
    )
    digits = (width + 3) // 4 if width <= 1100 else draw(st.integers(0, 8))
    size = draw(st.sampled_from([digits] * 3 + [max(digits - 1, 0), digits + 1, 0]))
    parts = {
        "width": str(width),
        "separator": ":",
        "prefix": "",
        "hex": draw(st.text(HEX_CHARS, min_size=size, max_size=size)),
        "suffix": "",
    }
    changes = ["width", "zero", "separator", "prefix", "spoiler", "suffix"]
    for change in draw(st.lists(st.sampled_from(changes), max_size=2)):
        if change == "width":
            parts["width"] = draw(st.text(WIDTH_CHARS, min_size=1, max_size=4))
        elif change == "zero":
            parts["width"] = "0" + parts["width"]
        elif change == "separator":
            parts["separator"] = draw(st.sampled_from(["", "::", " :"]))
        elif change == "prefix":
            parts["prefix"] = draw(st.sampled_from([" ", "+", "0x"]))
        elif change == "spoiler":
            at = draw(st.integers(0, len(parts["hex"])))
            spoiler = draw(st.sampled_from(SPOILERS))
            parts["hex"] = parts["hex"][:at] + spoiler + parts["hex"][at:]
        else:
            parts["suffix"] = draw(st.sampled_from(["\n", "\n\n", " ", "\r"]))
    return "".join(parts.values())


class TestLiteralDecoderMatchesTheRegex:
    """The loader and BitString.parse against the regex rule they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(text=near_literals())
    def test_loader_and_parse(self, text):
        try:
            expected, message = reference_literal(text), None
        except ValueError as exc:
            expected, message = None, str(exc)
        with tempfile.TemporaryDirectory() as tmp:
            path = with_field(Path(tmp), text)
            if message is not None:
                with pytest.raises(TranscriptFormatError) as caught:
                    list(read_jsonl(path))
                assert caught.value.line_number == 2
                assert str(caught.value) == f"line 2: bad entry ({message})"
            else:
                value = list(read_jsonl(path))[0].entries[0].fields["x"]
                assert type(value) is type(expected) and value == expected
        if isinstance(expected, BitString):
            assert BitString.parse(text) == expected
        else:
            with pytest.raises(ValueError) as caught:
                BitString.parse(text)
            assert str(caught.value) == (
                message or f"not a canonical bit string literal: {text!r}"
            )


class TestReplay:
    def test_fresh_honest_fwcfp_transcript_passes(self, tmp_path):
        result = fwcfp_disclosed_session()
        path = tmp_path / "ok.jsonl"
        write_jsonl(path, [result.transcript])
        report = replay_file(path)
        assert report.ok, report.describe()
        assert report.checked >= 5

    def test_fresh_honest_lwjx_transcript_passes(self, tmp_path):
        result = lwjx_disclosed_session()
        path = tmp_path / "ok.jsonl"
        write_jsonl(path, [result.transcript])
        report = replay_file(path)
        assert report.ok, report.describe()

    def test_flipped_bit_in_a_is_caught_and_named(self, tmp_path):
        result = fwcfp_disclosed_session()
        t = result.transcript
        for entry in t.entries:
            if entry.flow == "flow3":
                entry.fields["a"] = entry.fields["a"] ^ BitString(
                    entry.fields["a"].width, 1
                )
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [t])
        report = replay_file(path)
        assert not report.ok
        assert [issue.field for issue in report.issues] == ["A"]

    @pytest.mark.parametrize(
        "protocol, target, checked, issues",
        [
            ("lwjx", "flow3.hkt", 5, ["hkt", "id_after", "k_after"]),
            ("lwjx", "flow2.rt", 5, ["id_after", "k_after"]),
            ("lwjx", "flow2.hk", 2, ["hk"]),
            ("lwjx", "flow2.hid", 2, ["hid"]),
            ("lwjx", "flow1.rr", 2, []),
            ("fwcfp", "flow3.h2", 5, ["h2", "A", "B"]),
            ("fwcfp", "flow3.a", 5, ["A", "B"]),
            ("fwcfp", "flow3.b", 5, ["A", "B"]),
            ("fwcfp", "flow2.rand2", 5, ["A", "B"]),
            ("fwcfp", "flow2.h1", 2, ["h1"]),
            ("fwcfp", "flow2.idta", 2, ["idta"]),
            ("fwcfp", "flow1.rand1", 2, []),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_tampered_session_reports(self, tmp_path, protocol, target, checked, issues, seed):
        """A driven session whose interposer flips the low bit of one field."""
        flow, name = target.split(".")

        def flip(at, message):
            if at != flow:
                return message
            value = getattr(message, name)
            return message._replace(**{name: value ^ BitString(value.width, 1)})

        session = fwcfp_disclosed_session if protocol == "fwcfp" else lwjx_disclosed_session
        t = session(seed, interpose=flip).transcript
        path = tmp_path / "tampered.jsonl"
        write_jsonl(path, [t])
        for report in (verify_transcript(t), replay_file(path)):
            assert report.checked == checked
            assert [(i.field, i.message) for i in report.issues] == [
                (field, "recomputed value differs from the transcript") for field in issues
            ]

    @pytest.mark.parametrize(
        "ok, passes",
        [("true", True), ("1", False), ("1.0", False), ("false", False), ('"true"', False),
         (None, False)],
        ids=["true", "one", "one-point-zero", "false", "string", "missing"],
    )
    def test_only_json_true_is_an_ok_flow4(self, tmp_path, ok, passes):
        text = (FIXTURES / "fwcfp_honest.jsonl").read_text()
        fields = "{}" if ok is None else f'{{"ok": {ok}}}'
        path = tmp_path / "t.jsonl"
        path.write_text(text.replace('{"ok": true}', fields, 1))
        report = replay_file(path)
        assert report.checked == 12
        assert [(i.field, i.message) for i in report.issues] == (
            [] if passes else [("ok", "recomputed value differs from the transcript")]
        )

    @pytest.mark.parametrize(
        "name, edits, issues",
        [
            ("fwcfp_honest.jsonl", {"flow1": {"extra": "8:ff"}, "flow2": {"extra": "8:ff"}},
             [("flow1.extra", EXTRA), ("flow2.extra", EXTRA)]),
            ("lwjx_honest.jsonl", {"flow3": {"extra": "ok"}}, [("flow3.extra", EXTRA)]),
            ("lwjx_honest.jsonl", {"flow3": {"zz": 1, "aa": None}, "flow1": {"b": "8:ff"}},
             [("flow1.b", EXTRA), ("flow3.aa", EXTRA), ("flow3.zz", EXTRA)]),
            # the recomputation's issue comes before the extra field's
            ("lwjx_honest.jsonl", {"flow2": {"extra": "x", "hk": "96:" + "0" * 24}},
             [("hk", "recomputed value differs from the transcript"), ("flow2.extra", EXTRA)]),
            ("lwjx_honest.jsonl", {"flow4": {"ok": True, "x": "8:ff"}},
             [("flow4", NO_FLOW)]),
            ("lwjx_honest.jsonl", {"secrets": {"extra": "8:ff"}},
             [("secrets.extra", NO_SECRET)] * 3),
            # an LWJX secret is not an FWCFP one
            ("fwcfp_honest.jsonl", {"secrets": {"id": "8:ff"}}, [("secrets.id", NO_SECRET)] * 2),
            # per transcript: fields, then flows in the order of their
            # first entries, then secrets sorted
            ("lwjx_honest.jsonl",
             {"flow3": {"extra": "ok"}, "flow5": {}, "flow4": {"ok": True},
              "secrets": {"zz": "8:ff", "aa": 1}},
             [("flow3.extra", EXTRA), ("flow5", NO_FLOW), ("flow4", NO_FLOW),
              ("secrets.aa", NO_SECRET), ("secrets.zz", NO_SECRET)]
             + [("secrets.aa", NO_SECRET), ("secrets.zz", NO_SECRET)] * 2),
        ],
        ids=["fwcfp-flow1-flow2", "lwjx-flow3", "lwjx-flows-in-order-keys-sorted",
             "lwjx-after-the-verifiers-issues", "lwjx-flow4", "lwjx-extra-secret",
             "fwcfp-lwjx-secret", "lwjx-fields-flows-secrets-in-order"],
    )
    def test_a_field_the_flow_does_not_have_is_reported(self, tmp_path, name, edits, issues):
        """Edits update s0's entry of a flow, or add one after s0's flow3, and every meta
        line's secrets."""
        docs = [json.loads(line) for line in (FIXTURES / name).read_text().splitlines()]
        s0_flows = {doc["flow"] for doc in docs if doc["session"] == "s0" and "flow" in doc}
        edited = []
        for doc in docs:
            edited.append(doc)
            if doc["type"] == "meta":
                doc["secrets"].update(edits.get("secrets", {}))
            elif doc["session"] == "s0" and doc["flow"] in edits:
                doc["fields"].update(edits[doc["flow"]])
            if doc["session"] == "s0" and doc.get("flow") == "flow3":
                edited.extend(
                    {"fields": fields, "flow": flow, "sender": "tag", "session": "s0",
                     "type": "entry"}
                    for flow, fields in edits.items()
                    if flow.startswith("flow") and flow not in s0_flows
                )
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in edited))
        report = replay_file(path)
        assert report.checked == 12
        assert [(i.field, i.message) for i in report.issues] == issues

    @pytest.mark.parametrize(
        "name, edit, issues",
        [
            ("fwcfp_honest.jsonl", "drop", ["no reader verdict after flow2 reached the reader"]),
            ("fwcfp_honest.jsonl", "repeat", ["2 reader verdicts after flow2 reached the reader"]),
            ("fwcfp_honest.jsonl", "reject",
             ["the reader sent flow3, but the verdict does not accept",
              "rejects, but the reader logged no reject"]),
            ("fwcfp_honest.jsonl", "marker",
             ["the reader logged a reject, but the verdict does not reject"]),
            ("lwjx_honest.jsonl", "marker+reject",
             ["the reader sent flow3, but the verdict does not accept"]),
            ("lwjx_honest.jsonl", "unknown",
             ["the reader sent flow3, but the verdict does not accept"]),
        ],
        ids=["verdict-dropped", "verdict-repeated", "reject-after-flow3",
             "reject-marker-before-accept", "marker-and-reject-after-flow3", "unknown-outcome"],
    )
    def test_the_reader_verdict_must_match_the_readers_entries(
        self, tmp_path, capsys, name, edit, issues
    ):
        """Edits of s0's reader verdict line; the flows and their fields stay."""
        docs = [json.loads(line) for line in (FIXTURES / name).read_text().splitlines()]
        marker = {"fields": {}, "flow": "reject", "sender": "reader", "session": "s0",
                  "type": "entry"}
        edited = []
        for doc in docs:
            if doc["session"] == "s0" and doc.get("flow") == "verdict" and (
                doc["sender"] == "reader"
            ):
                if "marker" in edit:
                    edited.append(marker)
                if edit == "drop":
                    continue
                if edit == "repeat":
                    edited.append(doc)
                if "reject" in edit:
                    doc["fields"] = {"outcome": "reject", "party": "reader", "reason": "bad-h1"}
                if edit == "unknown":
                    doc["fields"]["outcome"] = "maybe"
            edited.append(doc)
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in edited))
        report = replay_file(path)
        assert report.checked == 12
        assert [(i.field, i.message) for i in report.issues] == [
            ("verdict.reader", issue) for issue in issues
        ]
        assert main(["replay", "--input", str(path)]) == EXIT_THRESHOLD
        assert "verdict.reader" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, before",
        [("fwcfp_honest.jsonl", "flow1"), ("lwjx_honest.jsonl", "flow2")],
        ids=["fwcfp-before-flow1", "lwjx-between-flow1-and-flow2"],
    )
    def test_the_reader_verdict_must_follow_flow2(self, tmp_path, capsys, name, before):
        """s0's reader verdict line moved up, before its entry of ``before``."""
        docs = [json.loads(line) for line in (FIXTURES / name).read_text().splitlines()]
        s0 = [doc for doc in docs if doc["session"] == "s0"]
        (verdict,) = [doc for doc in s0 if doc.get("flow") == "verdict"
                      and doc["sender"] == "reader"]
        docs.remove(verdict)
        (target,) = [doc for doc in s0 if doc.get("flow") == before]
        docs.insert(docs.index(target), verdict)
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        report = replay_file(path)
        assert report.checked == 12
        assert [(i.field, i.message) for i in report.issues] == [
            ("verdict.reader", "logged before flow2 reached the reader")
        ]
        assert main(["replay", "--input", str(path)]) == EXIT_THRESHOLD
        assert "verdict.reader: logged before flow2" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", [fwcfp.PROTOCOL, lwjx.PROTOCOL], ids=["fwcfp", "lwjx"])
    def test_disclosed_names_are_what_a_disclosed_session_records(self, protocol):
        session = fwcfp_disclosed_session if protocol is fwcfp.PROTOCOL else lwjx_disclosed_session
        result = session()
        assert result.both_accepted
        assert result.transcript.secrets.keys() == protocol.disclosed

    def test_malformed_line_reports_its_number(self, tmp_path):
        result = fwcfp_disclosed_session()
        path = tmp_path / "broken.jsonl"
        lines = transcript_to_lines(result.transcript)
        lines[2] = lines[2][:-5]  # truncate mid-object
        path.write_text("\n".join(lines) + "\n")
        report = replay_file(path)
        assert not report.ok
        assert report.issues[0].field == "format"
        assert report.issues[0].line == 3

    @pytest.mark.parametrize(
        "params",
        [{}, {"id_bits": 96}, "96", None],
        ids=["empty", "partial", "string", "null"],
    )
    def test_meta_params_are_checked_on_replay(self, tmp_path, params):
        lines = transcript_to_lines(fwcfp_disclosed_session().transcript)
        meta = json.loads(lines[0])
        meta["params"] = params
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        (loaded,) = read_jsonl(path)
        with pytest.raises(TranscriptParamsError):
            verify_transcript(loaded)
        report = replay_file(path)
        assert [issue.field for issue in report.issues] == ["params"]

    @pytest.mark.parametrize(
        "line_number, spoil",
        [
            (1, lambda lines: lines.__setitem__(0, "[1, 2]")),
            (2, lambda lines: lines.__setitem__(1, "5")),
            (1, lambda lines: lines.__setitem__(0, retyped(lines[0], secrets=5))),
            (2, lambda lines: lines.__setitem__(1, retyped(lines[1], fields=5))),
            (2, lambda lines: lines.__setitem__(1, retyped(lines[1], fields=[]))),
        ],
        ids=["array-line", "number-line", "secrets-number", "fields-number", "fields-array"],
    )
    def test_non_object_values_are_format_errors(self, tmp_path, line_number, spoil):
        lines = transcript_to_lines(fwcfp_disclosed_session().transcript)
        spoil(lines)
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TranscriptFormatError) as caught:
            list(read_jsonl(path))
        assert caught.value.line_number == line_number
        report = replay_file(path)
        assert [(i.field, i.line) for i in report.issues] == [("format", line_number)]

    @pytest.mark.parametrize("name", ["fwcfp_honest.jsonl", "lwjx_honest.jsonl"])
    @pytest.mark.parametrize(
        "line_number, key, value",
        [(2, "flow", 5), (2, "sender", []), (2, "note", {}), (2, "note", None),
         (1, "schema", True), (1, "schema", 1.0), (1, "schema", 2)],
        ids=["flow-number", "sender-array", "note-object", "note-null",
             "schema-true", "schema-float", "schema-2"],
    )
    def test_values_of_the_wrong_type_are_format_errors(
        self, tmp_path, name, line_number, key, value
    ):
        lines = (FIXTURES / name).read_text().splitlines()
        lines[line_number - 1] = retyped(lines[line_number - 1], **{key: value})
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TranscriptFormatError) as caught:
            list(read_jsonl(path))
        assert caught.value.line_number == line_number
        report = replay_file(path)
        assert [(i.field, i.line) for i in report.issues] == [("format", line_number)]

    @pytest.mark.parametrize("protocol, nonce", [("fwcfp", "rand1"), ("lwjx", "rr")])
    @pytest.mark.parametrize(
        "case, field",
        [("secret-missing", "secrets.k"), ("flow1-emptied", "flow1.{}"),
         ("nonce-a-number", "flow1.{}")],
    )
    def test_incomplete_transcripts_name_the_field(
        self, tmp_path, capsys, protocol, nonce, case, field
    ):
        lines = (FIXTURES / f"{protocol}_honest.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            if doc["type"] == "meta" and case == "secret-missing":
                del doc["secrets"]["k"]
            elif doc.get("flow") == "flow1" and case == "flow1-emptied":
                doc["fields"] = {}
            elif doc.get("flow") == "flow1" and case == "nonce-a-number":
                doc["fields"][nonce] = 5
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        field = field.format(nonce)
        assert {issue.field for issue in replay_file(path).issues} == {field}
        assert main(["replay", "--input", str(path)]) == EXIT_THRESHOLD
        assert field in capsys.readouterr().out

    def test_undisclosed_transcript_cannot_replay(self):
        rng = Rng(1)
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
        tag = db.provision(rng)
        result = lwjx.run_honest_session(tag, db, rng)
        report = verify_transcript(result.transcript)
        assert not report.ok
        assert report.issues[0].field == "secrets"

    def test_golden_fwcfp_fixture_replays(self):
        report = replay_file(FIXTURES / "fwcfp_honest.jsonl")
        assert report.ok, report.describe()

    def test_golden_lwjx_fixture_replays(self):
        report = replay_file(FIXTURES / "lwjx_honest.jsonl")
        assert report.ok, report.describe()

    @pytest.mark.parametrize("protocol", ["fwcfp", "lwjx"])
    def test_generator_reproduces_the_golden_fixture_bytes(self, protocol, tmp_path):
        spec = importlib.util.spec_from_file_location("generate_fixtures", GENERATOR)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        path = tmp_path / f"{protocol}_honest.jsonl"
        write_jsonl(path, getattr(generator, f"{protocol}_fixture")())
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes()

    @pytest.mark.parametrize(
        "protocol, spoils, ok, checked, issues",
        [
            ("fwcfp", ["block flow3"], True, 2, []),
            ("fwcfp", ["flip flow2.h1", "drop flow3.a"], False, 3,
             [("h1", "recomputed value differs from the transcript"),
              ("flow3.a", "missing")]),
            ("fwcfp", ["drop secrets.k", "block flow2"], False, 0,
             [("secrets.k", "missing")]),
            ("fwcfp", ["block flow2"], False, 0,
             [("transcript", "session has no complete exchange")]),
            ("lwjx", ["drop secrets.k_after"], False, 4, [("secrets.k_after", "missing")]),
        ],
        ids=["flow3-blocked", "h1-flipped-a-dropped", "k-dropped-flow2-blocked",
             "flow2-blocked", "k_after-dropped"],
    )
    def test_partial_verification(self, protocol, spoils, ok, checked, issues):
        """What a spoiled session still checks, and the order of its issues."""
        t = list(read_jsonl(FIXTURES / f"{protocol}_honest.jsonl"))[0]
        for spoil in spoils:
            action, target = spoil.split()
            where, _, name = target.partition(".")
            if action == "block":
                t.add(where, "adversary", {}, note="blocked")
                continue
            fields = t.secrets if where == "secrets" else t.delivered(where)
            if action == "drop":
                del fields[name]
            else:
                fields[name] = fields[name] ^ BitString(fields[name].width, 1)
        report = verify_transcript(t)
        assert (report.ok, report.checked) == (ok, checked)
        assert [(i.field, i.message) for i in report.issues] == issues

    @staticmethod
    def lwjx_session_docs(sessions, m_limit):
        """Every line, parsed, of ``sessions`` honest LWJX sessions with secrets."""
        rng = Rng(9)
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams(m_limit=m_limit))
        tag = db.provision(rng)
        return [
            json.loads(line)
            for _ in range(sessions)
            for line in transcript_to_lines(
                lwjx.run_honest_session(tag, db, rng, disclose_secrets=True).transcript
            )
        ]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("bits", True, "params bits must be an integer, got True"),
            ("bits", 96.0, "params bits must be an integer, got 96.0"),
            ("m_limit", True, "params m_limit must be an integer, got True"),
            ("extra", 1, "unknown params extra"),
        ],
        ids=["bits-true", "bits-float", "m_limit-true-equals-1", "extra-key"],
    )
    def test_params_are_validated_after_equal_valid_ones(self, tmp_path, key, value, message):
        # the valid sessions come first, with m_limit=1, so params equal to
        # the bad ones under == and hash (True == 1, 96.0 == 96) are seen
        docs = self.lwjx_session_docs(3, m_limit=1)
        metas = [doc for doc in docs if doc["type"] == "meta"]
        metas[-1]["params"][key] = value
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        report = replay_file(path)
        issue = f"session {metas[-1]['session']}: {message}"
        assert [(i.field, i.message) for i in report.issues] == [("params", issue)]

    def test_params_in_another_key_order_replay(self, tmp_path):
        docs = self.lwjx_session_docs(3, m_limit=5)
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        expected = replay_file(path)
        for i, doc in enumerate(d for d in docs if d["type"] == "meta"):
            if i % 2:
                doc["params"] = dict(reversed(doc["params"].items()))
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        assert '"m_limit": 5, "hash_bits"' in path.read_text()
        report = replay_file(path)
        assert report.ok, report.describe()
        assert report.checked == expected.checked == 3 * 5


class TestLoaderErrorText:
    """The loader's messages and line numbers, as json.loads and the literal parser word them."""

    BOM = "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"

    @pytest.mark.parametrize(
        "index, spoil, message",
        [
            (0, lambda line: "\ufeff" + line, BOM),
            (2, lambda line: " \ufeff" + line, BOM),
            (1, lambda line: '{"type": "meta"} {}', "invalid JSON (Extra data)"),
            (1, lambda line: line + "x", "invalid JSON (Extra data)"),
            (1, lambda line: "[" + line + "]", "not a JSON object"),
            (1, lambda line: "nul", "invalid JSON (Expecting value)"),
            (
                1,
                lambda line: line[:-1] + ",}",
                "invalid JSON (Expecting property name enclosed in double quotes)",
            ),
            (
                0,
                lambda line: retyped(line, secrets={"k": "08:ff"}),
                "bad meta line (not a canonical bit string literal: '08:ff')",
            ),
            (
                1,
                lambda line: retyped(line, session="zzz"),
                "bad entry (session 'zzz' is not the meta line's)",
            ),
            (
                8,
                lambda line: retyped(line, session="s0"),
                "bad entry (session 's0' is not the meta line's)",
            ),
            (1, lambda line: line.replace('"session": "s0", ', ""), "bad entry ('session')"),
        ],
        ids=[
            "bom-meta", "bom-after-space", "second-document", "trailing-text",
            "top-level-array", "bad-literal", "trailing-comma", "secrets-non-canonical",
            "entry-session-unknown", "entry-session-of-another-meta", "entry-session-missing",
        ],
    )
    def test_message_and_line_number(self, tmp_path, index, spoil, message):
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        lines[index] = spoil(lines[index])
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TranscriptFormatError) as caught:
            list(read_jsonl(path))
        assert str(caught.value) == f"line {index + 1}: {message}"
        assert caught.value.line_number == index + 1
        report = replay_file(path)
        assert [(i.field, i.line) for i in report.issues] == [("format", index + 1)]

    def test_whitespace_around_a_line_is_ignored(self, tmp_path):
        fixture = FIXTURES / "fwcfp_honest.jsonl"
        path = tmp_path / "t.jsonl"
        path.write_text("".join(f" \t{line} \r\n" for line in fixture.read_text().splitlines()))
        assert list(read_jsonl(path)) == list(read_jsonl(fixture))
        assert replay_file(path).ok


class TestStreamedReplay:
    """Replay reads one transcript at a time, with the outcomes of parsing the whole file first."""

    def test_a_transcript_is_yielded_with_all_its_entries(self):
        first = next(read_jsonl(FIXTURES / "fwcfp_honest.jsonl"))
        assert first.session == "s0"
        assert [(e.flow, e.sender) for e in first.entries] == [
            ("flow1", "reader"),
            ("flow2", "tag"),
            ("flow3", "reader"),
            ("verdict", "reader"),
            ("flow4", "tag"),
            ("verdict", "tag"),
        ]

    def test_a_later_format_error_wins_over_a_params_error(self, tmp_path, capsys):
        lines = (FIXTURES / "fwcfp_honest.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        meta["params"]["extra"] = 1
        lines[0] = json.dumps(meta)
        lines[9] += "x"  # in the second transcript
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        message = "line 10: invalid JSON (Extra data)"
        report = replay_file(path)
        assert [(i.field, i.message, i.line) for i in report.issues] == [
            ("format", message, 10)
        ]
        assert main(["replay", "--input", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_empty_file_has_no_transcripts(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        report = replay_file(path)
        assert [(i.field, i.message) for i in report.issues] == [("file", "no transcripts found")]
        assert main(["replay", "--input", str(path)]) == EXIT_THRESHOLD
        assert "no transcripts found" in capsys.readouterr().out


class TestSnapshots:
    def make_fwcfp_db(self, seed=9):
        rng = Rng(seed)
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        for _ in range(3):
            db.provision_tag(rng)
        return db, rng

    def make_lwjx_db(self, seed=9):
        rng = Rng(seed)
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
        tags = [db.provision(rng) for _ in range(3)]
        return db, tags, rng

    def test_fwcfp_round_trip_with_master_key(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        loaded = fwcfp_db_from_doc(doc)
        assert fwcfp_db_to_doc(loaded, include_master_key=True) == doc

    def test_fwcfp_snapshot_redacts_the_master_key_by_default(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db)
        assert "master_key" not in doc
        with pytest.raises(SnapshotError):
            fwcfp_db_from_doc(doc)
        loaded = fwcfp_db_from_doc(doc, master_key=db.ks.key)
        assert loaded.ks == db.ks

    def test_a_keyed_fwcfp_snapshot_takes_no_other_master_key(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        with pytest.raises(SnapshotError, match="carries its master key"):
            db_from_doc(doc, master_key=bytes(16))

    def test_an_lwjx_snapshot_cannot_include_a_master_key(self):
        with pytest.raises(SnapshotError, match="only FWCFP"):
            db_to_doc(self.make_lwjx_db()[0], include_master_key=True)

    @pytest.mark.parametrize("in_doc", [False, True], ids=["passed", "in-doc"])
    def test_an_lwjx_snapshot_loads_with_no_master_key(self, in_doc):
        doc = lwjx_db_to_doc(self.make_lwjx_db()[0])
        if in_doc:
            doc["master_key"] = "00" * 16
        with pytest.raises(SnapshotError, match="only FWCFP"):
            db_from_doc(doc, master_key=None if in_doc else bytes(16))

    def test_lwjx_round_trip_preserves_epochs_and_counter(self):
        db, tags, rng = self.make_lwjx_db()
        lwjx.run_honest_session(tags[0], db, rng)
        lwjx.run_honest_session(tags[1], db, rng, drop_flow3=True)
        lwjx.run_honest_session(tags[1], db, rng)  # old-branch: m = 1
        doc = lwjx_db_to_doc(db)
        assert doc["records"][1]["m"] == 1
        assert lwjx_db_to_doc(lwjx_db_from_doc(doc)) == doc

    def test_new_branch_session_touches_exactly_the_five_epoch_fields(self):
        db, tags, rng = self.make_lwjx_db()
        before = lwjx_db_to_doc(db)["records"][0]
        lwjx.run_honest_session(tags[0], db, rng)
        after = lwjx_db_to_doc(db)["records"][0]
        changed = {k for k in before if before[k] != after[k]}
        assert changed == {"id", "h_id_new", "h_id_old", "k_new", "k_old"}

    def test_file_round_trip(self, tmp_path):
        db, tags, rng = self.make_lwjx_db()
        path = tmp_path / "db.json"
        snapshot_db(db, path)
        loaded = load_db(path)
        assert lwjx_db_to_doc(loaded) == lwjx_db_to_doc(db)

    def test_fwcfp_file_round_trip_with_key(self, tmp_path):
        db, _ = self.make_fwcfp_db()
        path = tmp_path / "db.json"
        snapshot_db(db, path, include_master_key=True)
        loaded = load_db(path)
        assert fwcfp_db_to_doc(loaded, True) == fwcfp_db_to_doc(db, True)

    def test_schema_version_is_checked(self):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        doc["schema"] = 99
        with pytest.raises(SnapshotError):
            fwcfp_db_from_doc(doc)

    @pytest.mark.parametrize("schema", [True, 1.0, "1"])
    def test_schema_must_be_the_int_1(self, schema):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        doc["schema"] = schema
        with pytest.raises(SnapshotError):
            fwcfp_db_from_doc(doc)
        lwjx_doc = lwjx_db_to_doc(self.make_lwjx_db()[0])
        lwjx_doc["schema"] = schema
        with pytest.raises(SnapshotError):
            lwjx_db_from_doc(lwjx_doc)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda doc: doc.pop("records"),
            lambda doc: doc["params"].pop("bits"),
            lambda doc: doc["params"].update(bits="96"),
            lambda doc: doc["records"][0].update(m="1"),
            lambda doc: doc["records"][0].pop("k_new"),
            lambda doc: doc.update(records=7),
            lambda doc: doc["records"][0].update(id=5),
            lambda doc: doc["records"][0].update(h_id_old=5),
            lambda doc: doc["records"][0].update(k_new="96:" + "F" * 24),
            lambda doc: doc["records"][0].update(h_id_new="96:0x" + "f" * 22),
        ],
        ids=[
            "no-records",
            "no-bits",
            "string-bits",
            "string-m",
            "no-k-new",
            "records-not-a-list",
            "number-id",
            "number-h-id-old",
            "uppercase-hex",
            "0x-prefix",
        ],
    )
    def test_malformed_lwjx_fields_raise_snapshot_error(self, spoil):
        db, _, _ = self.make_lwjx_db()
        doc = lwjx_db_to_doc(db)
        spoil(doc)
        with pytest.raises(SnapshotError):
            lwjx_db_from_doc(doc)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda doc: doc["registry"][0].update(idt=5),
            lambda doc: doc["registry"][0].update(k=None),
            lambda doc: doc.update(master_key=5),
            lambda doc: doc.update(registry=[5]),
            lambda doc: doc["params"].update(rand0_bits=31),
        ],
        ids=["number-idt", "null-k", "number-master-key", "entry-not-an-object",
             "odd-alias-width"],
    )
    def test_malformed_fwcfp_fields_raise_snapshot_error(self, spoil):
        db, _ = self.make_fwcfp_db()
        doc = fwcfp_db_to_doc(db, include_master_key=True)
        spoil(doc)
        with pytest.raises(SnapshotError):
            fwcfp_db_from_doc(doc)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError):
            load_db(path)


class TestParamsFromDict:
    @pytest.mark.parametrize("params", [fwcfp.FwcfpParams(hash_bits=8), lwjx.LwjxParams(m_limit=0)])
    def test_round_trip(self, params):
        assert params_from_dict(type(params), params.to_dict()) == params

    @pytest.mark.parametrize(
        "doc",
        [
            {"bits": 8, "hash_bits": 8},
            {"bits": 8, "hash_bits": 8, "m_limit": 5, "extra": 1},
            {"bits": 8, "hash_bits": 8.0, "m_limit": 5},
            {"bits": True, "hash_bits": 8, "m_limit": 5},
            {"bits": 0, "hash_bits": 8, "m_limit": 5},
            [8, 8, 5],
        ],
        ids=["missing", "unknown", "float", "bool", "zero", "not-a-dict"],
    )
    def test_rejects_with_value_error(self, doc):
        with pytest.raises(ValueError):
            params_from_dict(lwjx.LwjxParams, doc)

    def test_equal_documents_share_one_params_object(self):
        doc = {"bits": 8, "hash_bits": 8, "m_limit": 5}
        params = params_from_dict(lwjx.LwjxParams, doc)
        assert params_from_dict(lwjx.LwjxParams, dict(doc)) is params
        assert params == lwjx.LwjxParams(8, 8, 5)
