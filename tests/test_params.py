"""Protocol params carry their derived values; verdicts are immutable.

A params object holds its derived widths and oracle params as plain
attributes next to its fields, and the readers and tags return shared
verdict values. Both are safe only while these invariants hold, which
every frozen record keeps.
"""

import pickle

import pytest

from rfidlab import fwcfp, lwjx
from rfidlab.attacks import DesyncOutcome
from rfidlab.bits import BitString, WidthError
from rfidlab.crypto import HASH_NAME, HashParams, PermKey, g_params, h_params, permute
from rfidlab.fwcfp import Flow2 as FwcfpFlow2
from rfidlab.fwcfp import Flow3 as FwcfpFlow3
from rfidlab.fwcfp import FwcfpParams, FwcfpReaderDb
from rfidlab.fwcfp import run_honest_session as fwcfp_session
from rfidlab.lwjx import Flow2 as LwjxFlow2
from rfidlab.lwjx import Flow3 as LwjxFlow3
from rfidlab.lwjx import LwjxParams, LwjxReaderDb
from rfidlab.lwjx import run_honest_session as lwjx_session
from rfidlab.game import SCHEMA_VERSION, AdvantageReport, ChallengeHandle
from rfidlab.records import FrozenRecord, FrozenRecordError, setfield
from rfidlab.replay import ReplayIssue, ReplayReport
from rfidlab.rng import Rng
from rfidlab.session import Message, Protocol, RejectMessage, SessionResult, SessionVerdict


def fwcfp_derived(p):
    return {"alias_bits": p.id_bits + p.rand0_bits, "hash": h_params(p.hash_bits)}


def lwjx_derived(p):
    return {"h": h_params(p.hash_bits), "g": g_params(p.bits)}


CASES = [
    (
        FwcfpParams(id_bits=40, key_bits=24, nonce_bits=16, hash_bits=12, rand0_bits=8),
        {"id_bits": 20, "rand0_bits": 6, "hash_bits": 5},
        fwcfp_derived,
    ),
    (LwjxParams(bits=20, hash_bits=6, m_limit=3), {"bits": 10, "hash_bits": 9}, lwjx_derived),
]
IDS = ["fwcfp", "lwjx"]


@pytest.mark.parametrize("params, widths, derived", CASES, ids=IDS)
class TestDerivedParams:
    def test_derived_values(self, params, widths, derived):
        for name, value in derived(params).items():
            assert getattr(params, name) == value

    def test_derived_values_are_not_fields(self, params, widths, derived):
        names = derived(params).keys()
        fields = list(params._fields)
        assert not names & set(fields)
        assert list(params.to_dict()) == fields
        body = ", ".join(f"{name}={getattr(params, name)!r}" for name in fields)
        assert repr(params) == f"{type(params).__name__}({body})"

    @pytest.mark.parametrize("value", [96.0, True])
    def test_widths_must_be_ints(self, params, widths, derived, value):
        # as params_from_dict requires: equal params write one document
        name = next(iter(widths))
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            params._replace(**{name: value})
        # the first bad field in field order is the one reported
        first = params._fields[0]
        with pytest.raises(ValueError, match=f"^{first} must be an integer, got {value!r}$"):
            type(params)(value, 0)

    def test_equal_params_compare_and_hash_equal(self, params, widths, derived):
        for twin in (type(params)(**params.to_dict()), type(params)(*params.to_dict().values())):
            assert twin == params
            assert hash(twin) == hash(params)
            assert twin.__dict__ == params.__dict__

    def test_pickle_round_trip(self, params, widths, derived):
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params
        for name, value in derived(params).items():
            assert getattr(copy, name) == value

    def test_replace_rederives(self, params, widths, derived):
        changed = params._replace(**widths)
        assert changed.to_dict() == {**params.to_dict(), **widths}
        for name, value in derived(changed).items():
            assert getattr(changed, name) == value
        assert derived(changed) != derived(params)

    def test_derived_values_cannot_be_assigned(self, params, widths, derived):
        for name in derived(params):
            with pytest.raises(FrozenRecordError):
                setattr(params, name, 1)


def flip(value: BitString) -> BitString:
    return value ^ BitString(value.width, 1)


def fwcfp_verdicts():
    """Every FWCFP verdict: both accepts and each reject reason."""
    rng = Rng(3)
    db = FwcfpReaderDb.create(FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    result = fwcfp_session(tag, db, rng)
    verdicts = [result.reader_verdict, result.tag_verdict]

    def flow2():
        sid, flow1 = db.begin(rng)
        return sid, tag.respond(flow1, rng)

    sid, f2 = flow2()
    foreign = BitString(db.params.alias_bits, permute(db.ks, rng.uint(db.params.alias_bits)))
    verdicts.append(db.authenticate(sid, FwcfpFlow2(foreign, f2.h1, f2.rand2), rng)[0])
    sid, f2 = flow2()
    verdicts.append(db.authenticate(sid, FwcfpFlow2(f2.idta, flip(f2.h1), f2.rand2), rng)[0])
    for tamper in (
        lambda f3: FwcfpFlow3(flip(f3.h2), f3.a, f3.b),
        lambda f3: FwcfpFlow3(f3.h2, flip(f3.a), f3.b),
    ):
        sid, f2 = flow2()
        _, f3 = db.authenticate(sid, f2, rng)
        verdicts.append(tag.finalize(tamper(f3))[0])
    return verdicts


def lwjx_verdicts():
    """Every LWJX verdict: both reader branches, the tag's, and each reject."""
    rng = Rng(4)
    db = LwjxReaderDb(LwjxParams(m_limit=0))
    tag = db.provision(rng)
    verdicts = []
    for drop in (False, True, True, True):  # new, new (dropped), old, warn-limit
        result = lwjx_session(tag, db, rng, drop_flow3=drop)
        verdicts += [result.reader_verdict, result.tag_verdict]
    tag = db.provision(rng)
    sid, flow1 = db.begin(rng)
    f2 = tag.respond(flow1, rng)
    verdicts.append(db.authenticate(sid, LwjxFlow2(f2.hid, flip(f2.hk), f2.rt), rng)[0])
    sid, _ = db.begin(rng)
    verdicts.append(db.authenticate(sid, LwjxFlow2(flip(f2.hid), f2.hk, f2.rt), rng)[0])
    sid, flow1 = db.begin(rng)
    _, f3 = db.authenticate(sid, tag.respond(flow1, rng), rng)
    verdicts.append(tag.finalize(LwjxFlow3(flip(f3.hkt))))
    return [v for v in verdicts if v is not None]


@pytest.mark.parametrize(
    "collect, expected",
    [
        (
            fwcfp_verdicts,
            {
                ("reader", True, None),
                ("tag", True, None),
                ("reader", False, "unknown-idt"),
                ("reader", False, "bad-h1"),
                ("tag", False, "bad-h2"),
                ("tag", False, "alias-mismatch"),
            },
        ),
        (
            lwjx_verdicts,
            {
                ("reader", True, "new-branch"),
                ("reader", True, "old-branch"),
                ("reader", False, "warn-limit"),
                ("reader", False, "bad-key-hash"),
                ("reader", False, "no-match"),
                ("tag", True, None),
                ("tag", False, "bad-hkt"),
            },
        ),
    ],
    ids=IDS,
)
def test_every_verdict_is_frozen(collect, expected):
    verdicts = collect()
    assert {(v.party, v.ok, v.reason) for v in verdicts} == expected
    for verdict in verdicts:
        for name in ("party", "ok", "reason", "issued"):
            with pytest.raises(FrozenRecordError):
                setattr(verdict, name, None)


@pytest.mark.parametrize(
    "collect, protocol", [(fwcfp_verdicts, fwcfp.PROTOCOL), (lwjx_verdicts, lwjx.PROTOCOL)], ids=IDS
)
def test_the_protocol_table_lists_each_verdict_its_reader_gives(collect, protocol):
    # replay takes the (outcome, reason) pairs a reader may log from this list
    given = {verdict for verdict in collect() if verdict.party == "reader"}
    assert len(protocol.reader_verdicts) == len(given)
    assert set(protocol.reader_verdicts) == given


X, Y, Z = BitString(8, 1), BitString(8, 2), BitString(8, 3)


# each frozen record, and a record of another class whose compared values
# are the same where one exists: the other protocol's message of that name,
# else any record class that holds such values
@pytest.mark.parametrize(
    "record, other",
    [
        (fwcfp.Flow1(X), lwjx.Flow1(X)),
        (lwjx.Flow1(X), fwcfp.Flow1(X)),
        (fwcfp.Flow2(X, Y, Z), lwjx.Flow2(X, Y, Z)),
        (lwjx.Flow2(X, Y, Z), fwcfp.Flow3(X, Y, Z)),
        (fwcfp.Flow3(X, Y, Z), fwcfp.Flow2(X, Y, Z)),
        (fwcfp.Flow4(), lwjx.Flow3(True)),
        (lwjx.Flow3(X), ChallengeHandle(X)),
        (RejectMessage(), Message()),
        (SessionVerdict("reader", True, "new-branch", X),
         ReplayIssue("reader", True, "new-branch")),
        (SessionVerdict("tag", False, "bad-hkt"), ReplayIssue("tag", False, "bad-hkt")),
        (HashParams(8, 1), ReplayReport(8, 1)),
        (PermKey(bytes(16), 8), ReplayReport(bytes(16), 8)),
        (ChallengeHandle(X), fwcfp.Flow1(X)),
        (FwcfpParams(id_bits=40, key_bits=24, nonce_bits=16, hash_bits=12), LwjxParams()),
        (LwjxParams(bits=20, hash_bits=6, m_limit=3), SessionVerdict(20, 6, 3)),
    ],
    ids=lambda value: f"{type(value).__module__[8:]}-{type(value).__name__}",
)
def test_every_frozen_record_is_immutable_picklable_and_class_strict(record, other):
    assert record._names == frozenset(record._fields)
    for name in (*record._fields, "extra"):
        with pytest.raises(FrozenRecordError):
            setattr(record, name, None)
        with pytest.raises(FrozenRecordError):
            delattr(record, name)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)
    assert copy.__dict__ == record.__dict__  # derived values are derived again
    assert record != other and other != record


# every record class whose constructor only stores its fields, with the
# default of each field that has one
STORING = [
    (fwcfp.Flow1, {}),
    (fwcfp.Flow2, {}),
    (fwcfp.Flow3, {}),
    (fwcfp.Flow4, {"ok": True}),
    (lwjx.Flow1, {}),
    (lwjx.Flow2, {}),
    (lwjx.Flow3, {}),
    (SessionVerdict, {"reason": None, "issued": None}),
    (SessionResult, {}),
    (Protocol, {}),
    (ChallengeHandle, {}),
    (AdvantageReport, {"hash_name": HASH_NAME, "schema": SCHEMA_VERSION, "generated_at": None}),
    (DesyncOutcome, {}),
    (ReplayIssue, {"line": None}),
    (ReplayReport, {}),
]


@pytest.mark.parametrize(
    "cls, defaults", STORING, ids=[f"{c.__module__[8:]}-{c.__name__}" for c, _ in STORING]
)
def test_storing_constructors(cls, defaults):
    values = {name: f"{name} value" for name in cls._fields}
    record = cls(*values.values())
    assert record == cls(**values)
    assert {name: getattr(record, name) for name in cls._fields} == values
    assert list(cls._fields[len(cls._fields) - len(defaults):]) == list(defaults)
    required = cls._fields[: len(cls._fields) - len(defaults)]
    for name in required:
        with pytest.raises(TypeError):
            cls(**{other: values[other] for other in required if other != name})
    bare = cls(**{name: values[name] for name in required})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    assert not cls._names & vars(cls).keys()
    if not issubclass(cls, FrozenRecord):
        first = cls._fields[0]
        for copy in (pickle.loads(pickle.dumps(record)), record._replace()):
            assert type(copy) is cls and copy is not record and copy == record
        changed = record._replace(**{first: "changed"})
        assert getattr(changed, first) == "changed" and getattr(record, first) == values[first]


def test_a_field_without_a_default_cannot_follow_one_with():
    with pytest.raises(SyntaxError):

        class Unordered(FrozenRecord):
            a: int = 1
            b: int


# every record class whose constructor checks its fields or derives values
# from them: valid fields, then a change to one that the check refuses
CHECKED = [
    (FwcfpParams, (40, 24, 16, 12, 8), {"rand0_bits": 7}, ValueError, r"^id_bits \+ rand0_bits"),
    (LwjxParams, (20, 6, 3), {"m_limit": -1}, ValueError, "^m_limit must be >= 0$"),
    (HashParams, (8, 1), {"domain_tag": 256}, ValueError, "^domain tag must be one byte"),
    (PermKey, (bytes(16), 8), {"width": 7}, WidthError, "^block width must be even"),
]


@pytest.mark.parametrize(
    "cls, values, bad, error, message", CHECKED, ids=[c.__name__ for c, *_ in CHECKED]
)
def test_checked_constructors(cls, values, bad, error, message):
    record = cls(*values)
    twin = cls(**dict(zip(cls._fields, values)))
    assert twin == record and twin.__dict__ == record.__dict__
    with pytest.raises(error, match=message):
        cls(**{**dict(zip(cls._fields, values)), **bad})
    # _replace and pickling build through the constructor, so both check again
    with pytest.raises(error, match=message):
        record._replace(**bad)
    for name, value in bad.items():
        setfield(record, name, value)
    with pytest.raises(error, match=message):
        pickle.loads(pickle.dumps(record))


class Subflow(fwcfp.Flow1):
    pass


class Subverdict(SessionVerdict):
    pass


class NotedVerdict(SessionVerdict, uncompared=("issued",)):
    note: str = "none"


def test_a_record_subclass_has_its_base_fields_then_its_own():
    assert Subflow._fields == ("rand1",) and Subflow._names == {"rand1"}
    assert Subflow(X) == Subflow(X) != Subflow(Y)
    assert len({hash(Subflow(value)) for value in (X, Y, Z)}) == 3
    assert repr(Subflow(X)) == f"Subflow(rand1={X!r})"
    assert Subflow(X) != fwcfp.Flow1(X)
    # an inherited default, and the base's uncompared field
    verdict = Subverdict("tag", True)
    assert (verdict.reason, verdict.issued) == (None, None)
    assert Subverdict("tag", True, issued=X) == Subverdict("tag", True, issued=Y)
    assert repr(verdict) == "Subverdict(party='tag', ok=True, reason=None, issued=None)"
    # a subclass that adds a field
    assert NotedVerdict._fields == (*SessionVerdict._fields, "note")
    noted = NotedVerdict("reader", False, "bad-h1", X, "seen")
    assert noted == NotedVerdict("reader", False, "bad-h1", Y, note="seen")
    assert noted != NotedVerdict("reader", False, "bad-h1", X)
    assert NotedVerdict("tag", True).note == "none"
    assert pickle.loads(pickle.dumps(noted)) == noted
    assert repr(noted).endswith(f"issued={X!r}, note='seen')")
