"""Pinned bytes of every branch of the session driver, and of the honest and
snapshot commands.

Each case runs one seeded session with disclosed secrets, steered down one
branch by an interposer (pass, block or tamper a flow), and pins the sha256
of its ``write_jsonl`` bytes. The transcript records every emission, every
adversary event, every reject marker and verdict, and the secrets before
and after, so a driver that reorders, drops or adds any of these shows up
as a digest mismatch.
"""

import hashlib

import pytest

from rfidlab import fwcfp, lwjx
from rfidlab.bits import BitString
from rfidlab.cli import EXIT_OK, main
from rfidlab.rng import Rng
from rfidlab.transcript import write_jsonl

SEED = 31


def _flip(value: BitString) -> BitString:
    return value ^ BitString(value.width, 1)


def _block(name):
    return lambda flow, message: None if flow == name else message


def _tamper(name, change):
    return lambda flow, message: change(message) if flow == name else message


FWCFP_CASES = {
    "honest": None,
    "passthrough": lambda flow, m: m,
    "flow1-blocked": _block("flow1"),
    "flow2-blocked": _block("flow2"),
    "flow2-tampered": _tamper(
        "flow2", lambda m: fwcfp.Flow2(idta=m.idta, h1=_flip(m.h1), rand2=m.rand2)
    ),
    "flow3-blocked": _block("flow3"),
    "flow3-tampered": _tamper(
        "flow3", lambda m: fwcfp.Flow3(h2=_flip(m.h2), a=m.a, b=m.b)
    ),
    "flow4-blocked": _block("flow4"),
}

LWJX_CASES = {
    "honest": None,
    "passthrough": lambda flow, m: m,
    "flow1-blocked": _block("flow1"),
    "flow2-blocked": _block("flow2"),
    "flow2-tampered": _tamper(
        "flow2", lambda m: lwjx.Flow2(hid=m.hid, hk=_flip(m.hk), rt=m.rt)
    ),
    "flow3-blocked": _block("flow3"),
    "flow3-tampered": _tamper("flow3", lambda m: lwjx.Flow3(hkt=_flip(m.hkt))),
}

FWCFP_DIGESTS = {
    "honest": "6cf027ab30050d560579a017f2d1826f981854769b207b5e45483436e89af1f4",
    # an interposer that passes every flow records what no interposer does
    "passthrough": "6cf027ab30050d560579a017f2d1826f981854769b207b5e45483436e89af1f4",
    "flow1-blocked": "bdbd0416a8d97e16866051e2b5a1f0615d0132f81b59ee00ddf5d84ee42dc5fb",
    "flow2-blocked": "5ba98546f67b52321a5fa95c925ad618d54ac188cf008dc7dc6d47be06b526b7",
    "flow2-tampered": "b633c12014af21bd82226ea4cbaa94472ee8dc2c35a4b332d8b4fc873cbb2af8",
    "flow3-blocked": "65fc442e9bfef5fbce2ee5ae9864e887845ce95c73563c81f6409a0edd768ff8",
    "flow3-tampered": "cf56ec5cbd385b241f9a9aeed4d8d07699ca72e6c97a1fbb6d188c4a6f119b03",
    "flow4-blocked": "98c19d4852487e2419fc01b16d432362248be88bbc164e7b929d386ecb38b2ff",
}

LWJX_DIGESTS = {
    "honest": "2c52f4fd85c76887a6c96e284c26a7182dc10ac1ff7089bd5516d0f04f030484",
    "passthrough": "2c52f4fd85c76887a6c96e284c26a7182dc10ac1ff7089bd5516d0f04f030484",
    "flow1-blocked": "d4ae785256aced08c82cf6facb0ed885c14b84d696cf02a6accf8f2589b14e1e",
    "flow2-blocked": "52dcf8bdbe9c4ea4cfcbfefa2545834d616ecb64c8cb62ec83203d78fc54847c",
    "flow2-tampered": "5b3c0a346cdd8ef5f3dd65f846e07ea16031a209d69c7b8ce4102299c71b5af8",
    "flow3-blocked": "2a10644ebd6ba1cbc38fae4b524f5ad924081ae7a7c034f5534358327bbc6ea4",
    "flow3-tampered": "e7c1cdb06179a1774f59c0210607a619234ecbb01348eece6ca1f058c957058e",
}

CLI_DIGESTS = {
    "honest-fwcfp": "1643917963ed7d021dcd2ab3faca41ac6a68d3e6436ba96306db9769dbf67d96",
    "honest-lwjx-drops": "d77dace13c6939befff01dacab66b4c43c4208dcdef50898a2c6821aafe60e83",
    "snapshot-fwcfp": "70169c91626e50c7eb4b72d6b887abfe1adea7d3fefe14576b90f03b48d21051",
    "snapshot-lwjx": "c2c475a6d818f45fcc25234e83d41de8ccc10647aeb583b5f40ad5382961f5ff",
}

CLI_ARGS = {
    "honest-fwcfp": ["honest", "--protocol", "fwcfp", "--trials", "40", "--no-timestamp"],
    "honest-lwjx-drops": [
        "honest", "--protocol", "lwjx", "--trials", "200",
        "--drop-flow3-rate", "0.3", "--no-timestamp",
    ],
    "snapshot-fwcfp": ["snapshot", "--protocol", "fwcfp", "--tags", "4", "--include-master-key"],
    "snapshot-lwjx": ["snapshot", "--protocol", "lwjx", "--tags", "4"],
}


def _digest_of(transcripts, tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, transcripts)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(FWCFP_CASES))
def test_fwcfp_session_branch_bytes(case, tmp_path):
    rng = Rng(SEED)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
    tag = db.provision_tag(rng)
    result = fwcfp.run_honest_session(
        tag, db, rng, interpose=FWCFP_CASES[case], disclose_secrets=True
    )
    assert _digest_of([result.transcript], tmp_path) == FWCFP_DIGESTS[case]


def _lwjx_world():
    rng = Rng(SEED)
    db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    return db.provision(rng), db, rng


@pytest.mark.parametrize("case", sorted(LWJX_CASES))
def test_lwjx_session_branch_bytes(case, tmp_path):
    tag, db, rng = _lwjx_world()
    result = lwjx.run_honest_session(
        tag, db, rng, interpose=LWJX_CASES[case], disclose_secrets=True
    )
    assert _digest_of([result.transcript], tmp_path) == LWJX_DIGESTS[case]


def test_lwjx_drop_flow3_blocks_before_the_interposer(tmp_path):
    tag, db, rng = _lwjx_world()
    seen = []

    def tamper_everything(flow, message):
        seen.append(flow)
        return lwjx.Flow3(hkt=_flip(message.hkt)) if flow == "flow3" else message

    result = lwjx.run_honest_session(
        tag, db, rng, drop_flow3=True, interpose=tamper_everything, disclose_secrets=True
    )
    # the interposer never sees flow3: the transcript is that of a plain block
    assert seen == ["flow1", "flow2"]
    assert _digest_of([result.transcript], tmp_path) == LWJX_DIGESTS["flow3-blocked"]


@pytest.mark.parametrize("case", sorted(CLI_ARGS))
def test_command_output_bytes(case, tmp_path):
    out = tmp_path / "out.json"
    code = main(CLI_ARGS[case] + ["--seed", str(SEED), "--output", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_DIGESTS[case]


# one file, many transcripts: pins the join within and between transcripts
MIXED_FILE_DIGEST = "bf12857e246f4bc83d146cfd4cbc4e70aa7058fb3ebd6c8bed74ceb0183585f5"


def test_mixed_file_bytes(tmp_path):
    f_rng = Rng(SEED, stream=0)
    f_db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), f_rng)
    f_tag = f_db.provision_tag(f_rng)
    l_rng = Rng(SEED, stream=1)
    l_db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
    l_tag = l_db.provision(l_rng)
    transcripts = []
    for _ in range(100):
        for protocol, tag, db, rng in ((fwcfp, f_tag, f_db, f_rng), (lwjx, l_tag, l_db, l_rng)):
            result = protocol.run_honest_session(tag, db, rng, disclose_secrets=True)
            transcripts.append(result.transcript)
    assert _digest_of(transcripts, tmp_path) == MIXED_FILE_DIGEST
