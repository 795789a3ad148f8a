"""How many SHA-256 digests one honest session computes.

Tag and reader check each other by asking the oracle the same question,
and both run in this process, so half of an honest session's queries
repeat one already answered. The table of recent queries under
``crypto.expand_mask`` answers those repeats without a digest; these
tests pin that budget, so a change that defeats the table fails here.
Each session is 96 bits wide, so every query costs one digest unless the
table answers it.
"""

import pytest

from rfidlab import crypto, fwcfp, lwjx
from rfidlab.rng import Rng

UNRELATED_QUERIES = 40  # more than the table holds


@pytest.fixture
def digests(monkeypatch):
    """A list that grows by one entry per SHA-256 computed, from an empty table."""
    log = []
    sha256 = crypto._sha256

    def counted(data):
        log.append(data[0])  # the domain tag
        return sha256(data)

    monkeypatch.setattr(crypto, "_sha256", counted)
    crypto._oracle.cache_clear()
    return log


def unrelated_queries():
    for value in range(UNRELATED_QUERIES):
        crypto.truncated_hash(crypto.h_params(96), 64, value)


@pytest.mark.parametrize("gap, expected", [(False, 8), (True, 12)])
def test_fwcfp_honest_session(digests, gap, expected):
    rng = Rng(11)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    if gap:
        unrelated_queries()
    digests.clear()
    result = fwcfp.run_honest_session(tag, db, rng)
    assert result.both_accepted
    # 16 queries: flow2 h1 (tag, reader), flow3 h2 (reader, tag), the two
    # alias masks (reader, tag), and the reader's invert of the tag's alias
    # and permute of the new one, 4 Feistel rounds each. h1, h2, the masks
    # and the new alias's rounds cost one digest each; the invert repeats
    # the rounds of the permute that issued the alias at provisioning,
    # unless other queries evicted them
    assert len(digests) == expected, digests


@pytest.mark.parametrize("gap", [False, True])
def test_lwjx_new_branch_session(digests, gap):
    rng = Rng(11)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    tag = db.provision(rng)
    if gap:
        unrelated_queries()
    digests.clear()
    result = lwjx.run_honest_session(tag, db, rng)
    assert result.reader_verdict.reason == "new-branch"
    assert result.tag_verdict.ok
    # 8 queries: H(K||Rr) (tag, reader), H(K||Rt) (reader, tag), G(ID)
    # (reader, tag) and the new record's H(ID') (reader, tag). The tag
    # keeps its H(ID), so flow2 asks nothing for it, and its H(ID') repeats
    # the reader's query of a moment before. One digest each, however many
    # queries came between provisioning and the session
    assert len(digests) == 4, digests


@pytest.mark.parametrize("gap, expected", [(False, 2), (True, 4)])
def test_lwjx_dropped_flow3_then_old_branch_session(digests, gap, expected):
    rng = Rng(11)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    tag = db.provision(rng)
    unrelated_queries()
    digests.clear()
    result = lwjx.run_honest_session(tag, db, rng, drop_flow3=True)
    assert result.reader_verdict.reason == "new-branch"
    assert result.tag_verdict is None
    # the tag's H(K||Rr), and the reader's H(K||Rr) (a repeat), its reply
    # H(K||Rt), G(ID) and H(ID'): the tag sends its kept H(ID)
    assert len(digests) == 4, digests
    if gap:
        unrelated_queries()
    digests.clear()
    result = lwjx.run_honest_session(tag, db, rng)
    assert result.reader_verdict.reason == "old-branch"
    assert result.tag_verdict.ok
    # H(K||Rr) (tag, reader), H(K||Rt) (reader, tag), then the tag's G(ID)
    # and H(ID'), which the reader asked in the dropped session: the tag's
    # chain costs digests only once other queries have evicted those
    assert len(digests) == expected, digests
