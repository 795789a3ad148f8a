"""How many BitStrings one honest session builds.

The oracles take and return ints, so a session should build a BitString
only for a value something keeps: a flow field, FWCFP tag or reader
state, or the verdict's issued alias. LWJX tags and records keep their
state as ints, so an LWJX session builds only its flow fields. These
tests pin that budget, so a throwaway BitString that creeps back into a
session fails here.
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
    # rr, rt; flow2 hid, hk; flow3 hkt. The record and the tag rewrite
    # their ints and build none
    assert len(built) == 5, built


def test_fwcfp_honest_session(built):
    rng = Rng(11)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    built.clear()
    result = fwcfp.run_honest_session(tag, db, rng)
    assert result.both_accepted
    # rand1, rand2; flow2 h1; the issued alias; flow3 h2, A, B; the tag's
    # new alias. permute and invert work on ints and the registry is keyed
    # by the int IDT, so neither the alias cipher nor the lookup builds one
    assert len(built) == 8, built
