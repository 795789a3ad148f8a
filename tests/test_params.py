"""Protocol params carry their derived values; verdicts are immutable.

A params object holds its derived widths and oracle params as plain
attributes next to its fields, and the readers and tags return shared
verdict values. Both are safe only while these invariants hold.
"""

import dataclasses
import pickle

import pytest

from rfidlab.bits import BitString
from rfidlab.crypto import g_params, h_params, permute
from rfidlab.fwcfp import Flow2 as FwcfpFlow2
from rfidlab.fwcfp import Flow3 as FwcfpFlow3
from rfidlab.fwcfp import FwcfpParams, FwcfpReaderDb
from rfidlab.fwcfp import run_honest_session as fwcfp_session
from rfidlab.lwjx import Flow2 as LwjxFlow2
from rfidlab.lwjx import Flow3 as LwjxFlow3
from rfidlab.lwjx import LwjxParams, LwjxReaderDb
from rfidlab.lwjx import run_honest_session as lwjx_session
from rfidlab.rng import Rng


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
        fields = [f.name for f in dataclasses.fields(params)]
        assert not names & set(fields)
        assert list(params.to_dict()) == fields
        body = ", ".join(f"{name}={getattr(params, name)!r}" for name in fields)
        assert repr(params) == f"{type(params).__name__}({body})"

    def test_equal_params_compare_and_hash_equal(self, params, widths, derived):
        twin = type(params)(**params.to_dict())
        assert twin == params
        assert hash(twin) == hash(params)

    def test_pickle_round_trip(self, params, widths, derived):
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params
        for name, value in derived(params).items():
            assert getattr(copy, name) == value

    def test_replace_rederives(self, params, widths, derived):
        changed = dataclasses.replace(params, **widths)
        assert changed.to_dict() == {**params.to_dict(), **widths}
        for name, value in derived(changed).items():
            assert getattr(changed, name) == value
        assert derived(changed) != derived(params)

    def test_derived_values_cannot_be_assigned(self, params, widths, derived):
        for name in derived(params):
            with pytest.raises(dataclasses.FrozenInstanceError):
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
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(verdict, name, None)
