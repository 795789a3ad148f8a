"""What recording a session's transcript costs, in work and in memory.

The driver logs the message and verdict objects it delivers; a
transcript's entries, with their fields dicts, are built from that log
only when someone reads them, and writing needs none of them. These tests
pin both budgets: no fields dict and no entry while a transcript is
unread, exactly the entries of an eager driver on the first read, no
fields dict on the next and a new entry list on each, none at all to
replay a file, one params document for the transcripts that share a
params object, retained bytes per session no more than the eager
driver's, no entry kept by a read, and a replay peak that does not grow
with the file.
"""

import gc
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from rfidlab import fwcfp, lwjx, transcript
from rfidlab.bits import BitString
from rfidlab.replay import replay_file
from rfidlab.rng import Rng
from rfidlab.session import Message, Params, SessionVerdict
from rfidlab.transcript import Transcript, TranscriptEntry, transcript_to_lines, write_jsonl

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def built(monkeypatch):
    """Counts of Message.fields and SessionVerdict.fields calls and entries built."""
    counts = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(Message, "fields", counting("Message", Message.fields))
    monkeypatch.setattr(SessionVerdict, "fields", counting("SessionVerdict", SessionVerdict.fields))
    monkeypatch.setattr(transcript, "TranscriptEntry", counting("TranscriptEntry", TranscriptEntry))
    return counts


def fwcfp_honest():
    rng = Rng(11)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    result = fwcfp.run_honest_session(tag, db, rng)
    assert result.both_accepted
    return result.transcript


def lwjx_flow3_dropped():
    rng = Rng(11)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    tag = db.provision(rng)
    result = lwjx.run_honest_session(tag, db, rng, drop_flow3=True)
    assert result.reader_verdict.ok and result.tag_verdict is None
    return result.transcript


# (flow, sender, note) of each entry, and the fields() calls and entries
# that building them takes: what an eager driver built during the session
SESSIONS = {
    "fwcfp-honest": (
        fwcfp_honest,
        [
            ("flow1", "reader", None),
            ("flow2", "tag", None),
            ("flow3", "reader", None),
            ("verdict", "reader", None),
            ("flow4", "tag", None),
            ("verdict", "tag", None),
        ],
        {"Message": 4, "SessionVerdict": 2, "TranscriptEntry": 6},
    ),
    "lwjx-flow3-dropped": (
        lwjx_flow3_dropped,
        [
            ("flow1", "reader", None),
            ("flow2", "tag", None),
            ("flow3", "reader", None),
            ("flow3", "adversary", "blocked"),
            ("verdict", "reader", None),
        ],
        {"Message": 3, "SessionVerdict": 1, "TranscriptEntry": 5},
    ),
}


@pytest.mark.parametrize("case", sorted(SESSIONS))
def test_fields_are_built_once_and_entries_on_every_read(built, case):
    run, shape, first_read = SESSIONS[case]
    t = run()
    assert built == {}  # unread: no fields dict, no entry
    lines = transcript_to_lines(t)
    assert built["TranscriptEntry"] == 0  # writing builds no entry
    built.clear()
    entries = t.entries
    assert [(e.flow, e.sender, e.note) for e in entries] == shape
    assert built == first_read
    built.clear()
    assert t.entries == entries
    assert transcript_to_lines(t) == lines
    # neither a second read nor a write calls fields() again: the log holds
    # the dicts the first read built; each read builds its own entries
    assert built["Message"] == built["SessionVerdict"] == 0
    assert built["TranscriptEntry"] == len(shape)


@pytest.mark.parametrize("case", sorted(SESSIONS))
@pytest.mark.parametrize("first", ["entries", "delivered"])
def test_a_change_to_read_fields_persists(built, case, first):
    run, _, first_read = SESSIONS[case]
    t = run()
    fields = t.entries[1].fields if first == "entries" else t.delivered("flow2")
    fields["extra"] = 1
    assert t.delivered("flow2") is fields
    assert t.entries[1].fields is fields
    # each entry's fields are built once, whichever read comes first, and
    # each read of the entries builds them all anew
    reads = 2 if first == "entries" else 1
    assert built["Message"] == first_read["Message"]
    assert built["SessionVerdict"] == first_read["SessionVerdict"]
    assert built["TranscriptEntry"] == reads * first_read["TranscriptEntry"]
    assert '"extra": 1' in transcript_to_lines(t)[2]


def test_a_shared_params_object_is_encoded_once(monkeypatch, tmp_path):
    # widths no other test writes, so no earlier write has cached them
    params = lwjx.LwjxParams(bits=1001, hash_bits=1003, m_limit=7)
    calls = []
    to_dict = Params.to_dict
    monkeypatch.setattr(Params, "to_dict", lambda self: calls.append(self) or to_dict(self))
    kept = []
    for i in range(100):
        t = Transcript(f"s{i}", "lwjx", params)
        t.add("flow1", "reader", {"rr": BitString(8, i)})
        kept.append(t)
    write_jsonl(tmp_path / "t.jsonl", kept)
    assert calls == [params]


@pytest.mark.parametrize("fixture", ["fwcfp_honest.jsonl", "lwjx_honest.jsonl"])
def test_replay_builds_no_entry(built, fixture):
    # a parsed file fills the log as the driver does, and replay reads only
    # the delivered flows' fields dicts, which the reader already decoded
    report = replay_file(FIXTURES / fixture)
    assert report.ok, report.describe()
    assert built == {}


# The record-replay workload's mix: honest FWCFP and LWJX sessions in turn,
# 96 bits wide, secrets disclosed, every transcript kept.
SESSIONS_KEPT = 2000
WARM_UP = 70  # sessions per protocol first, so caches and tables are full
# tracemalloc bytes per kept session with the eager driver, which built
# every entry during the session; measured by retained_bytes_per_session
# on CPython 3.11.7: 2297.6 recorded, 2297.8 written and 2297.9 read. The
# lazy driver measured 1591.6, 1815.9 and 1889.9: writing leaves each
# message object's attribute dict in place once its fields have been read,
# and reading puts the fields dicts in the log in their sources' place.
EAGER_BYTES_PER_SESSION = 2300
# what a read may add per kept session: at 5ee9290, which kept the entry
# list a read built, it added about 298 bytes (1823.9 written, 2121.9 read)
READ_KEEPS_BYTES_PER_SESSION = 100


def warmed_up_pairs():
    """(protocol module, tag, reader, rng) for FWCFP and LWJX, WARM_UP sessions in."""
    f_rng = Rng(7, stream=0)
    f_db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), f_rng)
    f_tag = f_db.provision_tag(f_rng)
    l_rng = Rng(7, stream=1)
    l_db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    l_tag = l_db.provision(l_rng)
    pairs = ((fwcfp, f_tag, f_db, f_rng), (lwjx, l_tag, l_db, l_rng))
    for protocol, tag, db, rng in pairs:
        for _ in range(WARM_UP):
            protocol.run_honest_session(tag, db, rng, disclose_secrets=True)
    return pairs


def retained_bytes_per_session(path):
    """tracemalloc bytes per kept session: recorded, then written to path, then read."""
    pairs = warmed_up_pairs()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [
            protocol.run_honest_session(tag, db, rng, disclose_secrets=True).transcript
            for _ in range(SESSIONS_KEPT // 2)
            for protocol, tag, db, rng in pairs
        ]
        gc.collect()
        recorded = tracemalloc.get_traced_memory()[0] - base
        write_jsonl(path, kept)
        gc.collect()
        written = tracemalloc.get_traced_memory()[0] - base
        for t in kept:
            t.entries
        gc.collect()
        read = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return recorded / len(kept), written / len(kept), read / len(kept)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the eager driver's bytes were measured on CPython 3.11",
)
def test_kept_transcripts_take_no_more_memory_than_eager_ones(tmp_path):
    recorded, written, read = retained_bytes_per_session(tmp_path / "t.jsonl")
    assert recorded <= EAGER_BYTES_PER_SESSION
    assert written <= EAGER_BYTES_PER_SESSION
    assert read <= EAGER_BYTES_PER_SESSION
    # the log is the one store: a read leaves only the fields dicts built
    # in it, and keeps no entry
    assert read - written <= READ_KEEPS_BYTES_PER_SESSION


# Replay reads one transcript at a time, so its peak does not grow with
# the file: at 06dff86, which parsed the whole file first, the 2000-session
# file peaked about 4.8 MB above the 200-session one.
STREAMED_PEAK_SLACK = 200_000


def replay_peak_bytes(path):
    """The tracemalloc peak, in bytes, of replaying path; the replay must pass."""
    gc.collect()
    tracemalloc.start()
    try:
        report = replay_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, report.describe()
    return peak


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the slack was measured on CPython 3.11",
)
def test_replay_memory_does_not_grow_with_the_file(tmp_path):
    pairs = warmed_up_pairs()
    kept = [
        protocol.run_honest_session(tag, db, rng, disclose_secrets=True).transcript
        for _ in range(SESSIONS_KEPT // 2)
        for protocol, tag, db, rng in pairs
    ]
    small, large = tmp_path / "200.jsonl", tmp_path / "2000.jsonl"
    write_jsonl(small, kept[:200])
    write_jsonl(large, kept)
    del kept
    replay_peak_bytes(small)  # so that caches fill before either peak is taken
    assert replay_peak_bytes(large) - replay_peak_bytes(small) <= STREAMED_PEAK_SLACK
