"""How many BitStrings one honest session builds.

The oracles take and return ints, so a session should build a BitString
only for a value something keeps: a flow field, tag or reader state, or
the verdict's issued alias. These tests pin that budget, so a throwaway
BitString that creeps back into a session fails here.
"""

import pytest

from rfidlab import fwcfp, lwjx
from rfidlab.bits import BitString
from rfidlab.rng import Rng


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one entry, the width, per BitString built."""
    log = []
    init = BitString.__init__

    def counted(self, width, value):
        log.append(width)
        init(self, width, value)

    monkeypatch.setattr(BitString, "__init__", counted)
    return log


def test_lwjx_new_branch_session(built):
    rng = Rng(11)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    tag = db.provision(rng)
    built.clear()
    result = lwjx.run_honest_session(tag, db, rng)
    assert result.reader_verdict.reason == "new-branch"
    assert result.tag_verdict.ok
    # rr, rt; flow2 hid, hk; flow3 hkt; the record's id, h_id_new, k_new;
    # the tag's id, k
    assert len(built) == 10, built


def test_fwcfp_honest_session(built):
    rng = Rng(11)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    built.clear()
    result = fwcfp.run_honest_session(tag, db, rng)
    assert result.both_accepted
    # rand1, rand2; flow2 h1; the inverted block and the IDT looked up;
    # the alias nonce, IDT || nonce and the issued alias; flow3 h2, A, B;
    # the tag's new alias
    assert len(built) == 12, built
