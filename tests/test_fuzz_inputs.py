"""Fuzzing the entry points that read outside input: transcripts and snapshots.

The inputs are the golden fixtures and freshly written snapshots with a few
mutations each: a dropped key, a value of the wrong type, a line that is not
an object, a dropped line. Every loader must answer with its documented
error or a result, and the CLI with exit code 0, 1 or 2, never a traceback.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rfidlab import replay
from rfidlab.cli import main
from rfidlab.snapshots import SnapshotError, load_db, read_doc
from rfidlab.transcript import TranscriptFormatError, read_jsonl

FIXTURES = Path(__file__).parent / "fixtures"

# JSON text, parsed afresh per draw so that no mutation reaches a shared value
VALUES = st.sampled_from(
    ["null", "0", "-1", "5", "true", "1.5", '""', '"x"', '"8:ff"', '"0:"', '"96:00"',
     "[]", "[1]", "{}", '{"a": 1}']
).map(json.loads)
NON_OBJECTS = st.sampled_from(["[1, 2]", "5", "null", '"text"', "true"])

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _paths(doc, prefix=()):
    """Every key path into a JSON document, containers and leaves alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def mutate(data, doc):
    """Drop a key or swap a value at a path drawn from the whole document."""
    paths = list(_paths(doc)) if isinstance(doc, (dict, list)) else []
    if not paths:
        return
    *parents, key = data.draw(st.sampled_from(paths))
    target = doc
    for parent in parents:
        target = target[parent]
    if isinstance(target, dict) and data.draw(st.booleans()):
        del target[key]
    else:
        target[key] = data.draw(VALUES)


def mutated_lines(data, name):
    lines = (FIXTURES / name).read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["mutate", "mutate", "replace", "drop"]))
        if action == "drop":
            del lines[index]
            if not lines:
                break
        elif action == "replace":
            lines[index] = data.draw(NON_OBJECTS)
        else:
            doc = json.loads(lines[index])
            mutate(data, doc)
            lines[index] = json.dumps(doc)
    return lines


@FUZZ
@given(data=st.data(), name=st.sampled_from(["fwcfp_honest.jsonl", "lwjx_honest.jsonl"]))
def test_mutated_transcripts_fail_cleanly(tmp_path, data, name):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in mutated_lines(data, name)))
    try:
        report = replay.verify_all(read_jsonl(path))
    except (TranscriptFormatError, replay.TranscriptParamsError):
        pass
    else:
        assert isinstance(report, replay.ReplayReport)
    assert main(["replay", "--input", str(path)]) in (0, 1, 2)


def _snapshot_doc(tmp_path, protocol):
    path = tmp_path / f"{protocol}.json"
    extra = ["--include-master-key"] if protocol == "fwcfp" else []
    args = ["snapshot", "--protocol", protocol, "--tags", "2", "--hash-bits", "16"]
    assert main(args + extra + ["--output", str(path)]) == 0
    return json.loads(path.read_text())


@FUZZ
@given(data=st.data(), protocol=st.sampled_from(["fwcfp", "lwjx"]))
def test_mutated_snapshots_fail_cleanly(tmp_path, data, protocol):
    doc = _snapshot_doc(tmp_path, protocol)
    if data.draw(st.booleans()):
        doc = json.loads(data.draw(NON_OBJECTS))
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, doc)
    path = tmp_path / "db.json"
    path.write_text(json.dumps(doc))
    try:
        load_db(path, master_key=bytes(16))
    except SnapshotError:
        pass
    assert main(["snapshot", "--input", str(path)]) in (0, 1, 2)
    assert main(["snapshot", "--input", str(path), "--master-key", "00" * 16]) in (0, 1, 2)


# JSON that the parser gives up on with an exception other than
# JSONDecodeError: RecursionError and ValueError
DEEP = "[" * 100_000
LONG_INT = '{"schema": ' + "1" * 5000 + "}"
UNPARSABLE = pytest.mark.parametrize(
    "text, reason",
    [(DEEP, "nested too deeply"), (LONG_INT, "integer too long")],
    ids=["deep-nesting", "long-integer"],
)


@UNPARSABLE
def test_an_unparsable_transcript_line_is_one_error_line(tmp_path, capsys, text, reason):
    lines = (FIXTURES / "lwjx_honest.jsonl").read_text().splitlines()
    lines[1] = text
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(TranscriptFormatError) as caught:
        list(read_jsonl(path))
    assert str(caught.value) == f"line 2: invalid JSON ({reason})"
    assert [(i.field, i.line) for i in replay.replay_file(path).issues] == [("format", 2)]
    capsys.readouterr()
    assert main(["replay", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: line 2: invalid JSON ({reason})\n"


@UNPARSABLE
def test_an_unparsable_snapshot_is_one_error_line(tmp_path, capsys, text, reason):
    path = tmp_path / "db.json"
    path.write_text(text)
    with pytest.raises(SnapshotError) as caught:
        read_doc(path)
    assert str(caught.value) == f"malformed snapshot: {reason}"
    assert main(["snapshot", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: malformed snapshot: {reason}\n"
