"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. The Monte Carlo criteria use fixed seeds, so the whole suite
is deterministic on a given platform.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest

from rfidlab import cli, fwcfp, lwjx
from rfidlab.attacks import LwjxTraceStrategy, fwcfp_desync_attack
from rfidlab.bits import BitString
from rfidlab.crypto import PermKey, h_params, invert, permute, truncated_hash
from rfidlab.game import (
    CORRUPT_AFTER_ARCHIVE,
    CORRUPT_NEVER,
    GameDriver,
    PROTOCOLS,
    PhaseViolation,
    UprivGame,
    estimate_advantage,
)
from rfidlab.rng import Rng

SEED = cli.DEFAULT_SEED


@contextmanager
def criterion(number, label, budget_seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"\n[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f}s)")


def test_criterion_1_fwcfp_correctness():
    with criterion(1, "FWCFP honest correctness", budget_seconds=5):
        rng = Rng(SEED)
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        tag = db.provision_tag(rng)
        for _ in range(1000):
            result = fwcfp.run_honest_session(tag, db, rng)
            assert result.both_accepted
            assert fwcfp.alias_identity(db, tag) == tag.bookkeeping_idt


def test_criterion_2_desynchronization():
    with criterion(2, "desynchronization attack", budget_seconds=10):
        rng = Rng(SEED)
        for _ in range(100):
            world = Rng(SEED, stream=rng.bits(32).value)
            db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), world)
            tag = db.provision_tag(world)
            mask = world.nonzero_bits(db.params.alias_bits)
            outcome = fwcfp_desync_attack(tag, db, mask, attempts=100, rng=world)
            assert outcome.tamper_accepted
            assert outcome.alias_after == outcome.issued_alias ^ mask
            assert outcome.rejects == 100


def trace_criterion(protocol, strategy, params_for):
    runs = []
    for hash_bits, trials in ((8, 20_000), (2, 50_000)):
        report = estimate_advantage(
            protocol, strategy, params_for(hash_bits), trials, seed=SEED
        )
        print(f"\n[acceptance]   {report.summary_line()}")
        assert report.discarded == 0
        assert report.empirical_adv == pytest.approx(report.exact_adv, abs=0.01), (
            f"n={hash_bits}"
        )
        runs.append(report)
    n2 = runs[1]
    # the quoted 1/2 - 2^-n closed form (0.25 at n=2) must sit outside the
    # empirical confidence interval, and the report itself must say so
    assert n2.nominal_adv == 0.25
    assert abs(n2.nominal_adv - n2.empirical_adv) > n2.ci95
    assert n2.nominal_within_ci is False
    return runs


def test_criterion_3_fwcfp_trace_advantage():
    with criterion(3, "FWCFP trace advantage", budget_seconds=60):
        trace_criterion(
            "fwcfp", "fwcfp-trace", lambda n: fwcfp.FwcfpParams(hash_bits=n)
        )


def test_criterion_4_fwcfp_backward_trace_advantage():
    with criterion(4, "FWCFP backward-trace advantage", budget_seconds=60):
        trace_criterion(
            "fwcfp", "fwcfp-backtrace", lambda n: fwcfp.FwcfpParams(hash_bits=n)
        )
        # corrupt-after-archive ordering: corrupting a candidate before the
        # challenge session is archived is a phase violation, and the
        # standard game never allows it at all
        game = UprivGame(
            PROTOCOLS["fwcfp"], fwcfp.FwcfpParams(), Rng(SEED),
            corrupt_policy=CORRUPT_AFTER_ARCHIVE,
        )
        handle = game.run_test()
        with pytest.raises(PhaseViolation):
            game.corrupt(0)
        game.execute(handle)
        game.corrupt(0)
        strict = UprivGame(
            PROTOCOLS["fwcfp"], fwcfp.FwcfpParams(), Rng(SEED),
            corrupt_policy=CORRUPT_NEVER,
        )
        strict_handle = strict.run_test()
        strict.execute(strict_handle)
        with pytest.raises(PhaseViolation):
            strict.corrupt(0)


def test_criterion_5_lwjx_trace_advantage():
    with criterion(5, "LWJX trace advantage, both modes", budget_seconds=60):
        for strategy in ("lwjx-trace-id", "lwjx-trace-key"):
            trace_criterion(
                "lwjx", strategy, lambda n: lwjx.LwjxParams(hash_bits=n)
            )
        # aborted learning sessions never touch tag state
        unchanged = 0
        trials = 1000
        for i in range(trials):
            game = UprivGame(PROTOCOLS["lwjx"], lwjx.LwjxParams(), Rng(SEED, 2 * i))
            before = (game.tag0.id, game.tag0.k)
            LwjxTraceStrategy(Rng(SEED, 2 * i + 1), bits=96).learning(GameDriver(game))
            unchanged += int((game.tag0.id, game.tag0.k) == before)
        assert unchanged == trials


def test_criterion_6_lwjx_resynchronization():
    with criterion(6, "LWJX resynchronization under loss", budget_seconds=30):
        params = lwjx.LwjxParams(m_limit=5)
        rng = Rng(SEED)
        db = lwjx.LwjxReaderDb(params)
        tag = db.provision(rng)
        record = db.records[0]
        for _ in range(1000):
            drop = rng.random() < 0.3
            result = lwjx.run_honest_session(tag, db, rng, drop_flow3=drop)
            verdict = result.reader_verdict
            assert verdict is not None and verdict.ok
            assert verdict.reason in ("new-branch", "old-branch")
            assert record.m <= params.m_limit
            assert lwjx.is_synchronized(db, tag)


def test_criterion_7_primitive_oracles():
    with criterion(7, "permutation and hash-truncation oracles", budget_seconds=60):
        key_rng = Rng(SEED)
        for _ in range(20):
            key = PermKey(key_rng.bytes(16), 8)
            seen = set()
            for value in range(256):
                x = BitString(8, value)
                y = permute(key, x)
                assert invert(key, y) == x
                seen.add(y.value)
            assert len(seen) == 256

        for n in (2, 4, 8):
            samples = 2 ** (n + 4)
            rng = Rng(SEED + n)
            inputs = set()
            while len(inputs) < samples:
                inputs.add(rng.bits(64).value)
            counts = {}
            for m in inputs:
                v = truncated_hash(h_params(n), 64, m)
                counts[v] = counts.get(v, 0) + 1
            collisions = sum(c * (c - 1) // 2 for c in counts.values())
            pairs = math.comb(samples, 2)
            mean = pairs * 2.0**-n
            sd = math.sqrt(pairs * 2.0**-n * (1 - 2.0**-n))
            assert abs(collisions - mean) <= 3 * sd, f"n={n}"


def test_criterion_8_harness_soundness(tmp_path):
    with criterion(8, "harness soundness", budget_seconds=60):
        report = estimate_advantage(
            "fwcfp", "coin-flip", fwcfp.FwcfpParams(hash_bits=8), 10_000, seed=SEED
        )
        print(f"\n[acceptance]   {report.summary_line()}")
        assert report.empirical_adv < 3 * report.ci95

        args = ["trace", "--protocol", "fwcfp", "--hash-bits", "8",
                "--trials", "500", "--seed", str(SEED), "--no-timestamp"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        stamped = ["trace", "--protocol", "fwcfp", "--hash-bits", "8",
                   "--trials", "500", "--seed", str(SEED)]
        c, d = tmp_path / "c.json", tmp_path / "d.json"
        assert cli.main(stamped + ["--output", str(c)]) == 0
        assert cli.main(stamped + ["--output", str(d)]) == 0
        assert cli.canonical_report_bytes(
            json.loads(c.read_text())
        ) == cli.canonical_report_bytes(json.loads(d.read_text()))
