"""Pinned report bytes: every seeded report must stay the same, byte for byte.

The digests are the sha256 of ``canonical_report_bytes`` (the report with
its timestamp removed) for each registered strategy at one fixed seed, at
``hash_bits`` 8 and at the 96-bit defaults, plus the honest and desync
reports (desync also as CSV). A change to the hash oracles, the
permutation, the Rng streams, the game or the report header that moves any
seeded number or key shows up here as a digest mismatch.
"""

import argparse
import hashlib
import json
import re

import pytest

from rfidlab.cli import EXIT_OK, EXIT_THRESHOLD, build_parser, canonical_report_bytes, main
from rfidlab.fwcfp import FwcfpParams
from rfidlab.game import SCHEMA_VERSION, estimate_advantage
from rfidlab.lwjx import LwjxParams

SEED = 2024
TRIALS = 200

# case -> CLI arguments (None: the strategy has no CLI command)
CLI_ARGS = {
    "coin-flip/fwcfp": None,
    "coin-flip/lwjx": None,
    "fwcfp-trace": ["trace", "--protocol", "fwcfp"],
    "fwcfp-backtrace": ["backtrace", "--protocol", "fwcfp"],
    "lwjx-trace-id": ["trace", "--protocol", "lwjx"],
    "lwjx-trace-key": ["trace", "--protocol", "lwjx", "--guess-mode", "key-hash"],
}

DIGESTS = {
    ("coin-flip/fwcfp", 8): "22bf1d6163746022999363b47d73ded0d88ae5fbcf535808ca6079895292363d",
    ("coin-flip/lwjx", 8): "500507826a4e8fbdf6fbe2e74e03cf0bc2c6a4986bdf45d992f81bd2cad95348",
    ("fwcfp-backtrace", 8): "340c1d117d6eae8fce4e257468fe33c9f798422e7f1f4d75ae1b6090c95ada1f",
    ("fwcfp-trace", 8): "945b89a1ff6814dd71bee70b508cfd08d966d812634d81afd8e4684f27fd6cd4",
    ("lwjx-trace-id", 8): "cda3b45776f46b1f61a865842c5b5a540d0cd98d3d9720d983e4708bf6c0cddc",
    ("lwjx-trace-key", 8): "63fdea193f662f878d44ac1072952d115672a387b2fd44fc18a6ac249c8c365b",
    ("coin-flip/fwcfp", None): "3efe003fd70f6d0b05b241b2dec6d12d0b48bbb2c74a7801b1d83e19d5a4e1db",
    ("coin-flip/lwjx", None): "883a711dfad2501d8ebf8aa5cd43a80831dcb17d7553e8411169be7568dbfd24",
    ("fwcfp-backtrace", None): "aad748be312eeb43a02a70313b1f6b4747289004d3e83751da0c04df85d64653",
    ("fwcfp-trace", None): "8efc8b9bea2f634124e54ddb71ec3b657eb1a61d05f350fa3ea5df8ef4b80419",
    ("lwjx-trace-id", None): "ada6d3f14a31896ba3adb72c40f83429e870c5b1cd720149ef9655104850b0a7",
    ("lwjx-trace-key", None): "94dd8e8849c166294f9b590c304c2de93cc9ff6e1d28cac4b8b03f63c7bd6940",
}

DESYNC_DIGEST = "ff04c8f0969eccc74feee7ed6c6f627e33db0cf9352d635b8f829fbc6ebff79e"
DESYNC_ARGS = ["desync", "--protocol", "fwcfp", "--attempts", "20"]
# sha256 of the CSV file itself: it has no timestamp with --no-timestamp
DESYNC_CSV_DIGEST = "4ca6bc9e3db28f09eca7dc24cff6eece34d81e31e1f13dd090a8b386b5e9fdd1"

HONEST_ARGS = {
    "honest-fwcfp": ["honest", "--protocol", "fwcfp", "--trials", "50"],
    "honest-lwjx-drops": [
        "honest", "--protocol", "lwjx", "--trials", str(TRIALS), "--drop-flow3-rate", "0.3",
    ],
}

HONEST_DIGESTS = {
    "honest-fwcfp": "7d2838a123027b65eb95342e4ee6b2484299de01b5670e8b9118048ef1094f0f",
    "honest-lwjx-drops": "42b7030d7ab5c3e5712685842cf8c24ceb3a8831ec7f572cfc408124962e5419",
}


def _report_doc(case, hash_bits, tmp_path):
    args = CLI_ARGS[case]
    widths = [] if hash_bits is None else ["--hash-bits", str(hash_bits)]
    if args is None:
        protocol = case.split("/")[1]
        params_cls = FwcfpParams if protocol == "fwcfp" else LwjxParams
        params = params_cls() if hash_bits is None else params_cls(hash_bits=hash_bits)
        report = estimate_advantage(
            protocol, "coin-flip", params, TRIALS, SEED, timestamp=False
        )
        return report.to_dict()
    out = tmp_path / "report.json"
    code = main(
        args + widths
        + ["--trials", str(TRIALS), "--seed", str(SEED), "--no-timestamp", "--output", str(out)]
    )
    assert code in (EXIT_OK, EXIT_THRESHOLD)
    return json.loads(out.read_text())


def _run(args, out):
    code = main(args + ["--seed", str(SEED), "--no-timestamp", "--output", str(out)])
    assert code == EXIT_OK
    return out.read_bytes()


def _digest(doc):
    return hashlib.sha256(canonical_report_bytes(doc)).hexdigest()


@pytest.mark.parametrize("hash_bits", [8, None], ids=["hash8", "defaults"])
@pytest.mark.parametrize("case", sorted(CLI_ARGS))
def test_advantage_report_bytes_are_pinned(case, hash_bits, tmp_path):
    doc = _report_doc(case, hash_bits, tmp_path)
    assert _digest(doc) == DIGESTS[(case, hash_bits)]


def test_desync_report_bytes_are_pinned(tmp_path):
    doc = json.loads(_run(DESYNC_ARGS, tmp_path / "desync.json"))
    assert _digest(doc) == DESYNC_DIGEST


def test_desync_csv_bytes_are_pinned(tmp_path):
    text = _run(DESYNC_ARGS + ["--format", "csv"], tmp_path / "desync.csv")
    assert hashlib.sha256(text).hexdigest() == DESYNC_CSV_DIGEST


@pytest.mark.parametrize("case", sorted(HONEST_ARGS))
def test_honest_report_bytes_are_pinned(case, tmp_path):
    doc = json.loads(_run(HONEST_ARGS[case], tmp_path / "honest.json"))
    assert _digest(doc) == HONEST_DIGESTS[case]


# a short run of every command that writes a report
REPORT_RUNS = {
    "honest": ["honest", "--trials", "3"],
    "desync": ["desync", "--attempts", "2"],
    "trace": ["trace", "--trials", "3", "--hash-bits", "8"],
    "backtrace": ["backtrace", "--trials", "3", "--hash-bits", "8"],
}


def test_report_runs_cover_every_report_command():
    # argparse has no public list of subcommands; its subparsers action holds one
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = action.choices
    reporting = {name for name, sub in commands.items() if sub.get_default("report")}
    assert reporting == set(REPORT_RUNS)


@pytest.mark.parametrize("timestamp", [True, False], ids=["timestamp", "no-timestamp"])
@pytest.mark.parametrize("command", sorted(REPORT_RUNS))
def test_every_report_has_the_shared_header(command, timestamp, tmp_path):
    out = tmp_path / "report.json"
    flags = ["--seed", str(SEED), "--output", str(out)] + ([] if timestamp else ["--no-timestamp"])
    assert main(REPORT_RUNS[command] + flags) in (EXIT_OK, EXIT_THRESHOLD)
    doc = json.loads(out.read_text())
    params = FwcfpParams() if command in ("honest", "desync") else FwcfpParams(hash_bits=8)
    header = {
        "schema": SCHEMA_VERSION,
        "protocol": "fwcfp",
        "experiment": command,
        "params": params.to_dict(),
        "seed": SEED,
    }
    assert {key: doc.get(key) for key in header} == header
    assert ("generated_at" in doc) == timestamp
    if timestamp:
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", doc["generated_at"])
