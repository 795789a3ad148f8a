import pytest

from rfidlab import fwcfp, lwjx
from rfidlab.attacks import (
    FwcfpBackwardTraceStrategy,
    FwcfpTraceStrategy,
    LwjxTraceStrategy,
    fwcfp_desync_attack,
)
from rfidlab.bits import BitString
from rfidlab.game import PROTOCOLS, TrialAbort, run_upriv_game
from rfidlab.rng import Rng
from rfidlab.transcript import Transcript

from pooled import pooled_estimate


def fwcfp_world(seed=1, **params):
    rng = Rng(seed)
    db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(**params), rng)
    tag = db.provision_tag(rng)
    return tag, db, rng


def fwcfp_undo_desync(tag, db, mask, rng):
    """XOR the same mask into the tag's outgoing alias; self-inverse repair.

    The reader then decrypts the original identifier again, the session
    completes, and the tag stores a cleanly issued alias.
    """

    def fix(flow, message):
        if flow == "flow2":
            return fwcfp.Flow2(idta=message.idta ^ mask, h1=message.h1, rand2=message.rand2)
        return message

    return fwcfp.run_honest_session(tag, db, rng, interpose=fix)


class TestDesync:
    def test_tag_accepts_the_tampered_session(self):
        tag, db, rng = fwcfp_world()
        mask = rng.nonzero_bits(db.params.alias_bits)
        outcome = fwcfp_desync_attack(tag, db, mask, attempts=0, rng=rng)
        assert outcome.tamper_accepted

    def test_alias_lands_on_issued_xor_mask(self):
        tag, db, rng = fwcfp_world()
        mask = rng.nonzero_bits(db.params.alias_bits)
        outcome = fwcfp_desync_attack(tag, db, mask, attempts=0, rng=rng)
        assert outcome.alias_shift_matches
        assert outcome.alias_after == outcome.issued_alias ^ mask

    def test_all_later_honest_sessions_are_rejected(self):
        tag, db, rng = fwcfp_world()
        mask = rng.nonzero_bits(db.params.alias_bits)
        outcome = fwcfp_desync_attack(tag, db, mask, attempts=100, rng=rng)
        assert outcome.rejects == 100
        assert set(outcome.reject_reasons) == {"unknown-idt"}

    def test_zero_mask_rejected_as_degenerate(self):
        tag, db, rng = fwcfp_world()
        with pytest.raises(ValueError):
            fwcfp_desync_attack(tag, db, BitString(db.params.alias_bits, 0), 1, rng)

    def test_wrong_width_mask_rejected(self):
        tag, db, rng = fwcfp_world()
        with pytest.raises(ValueError):
            fwcfp_desync_attack(tag, db, rng.nonzero_bits(8), 1, rng)

    def test_transcript_shows_the_tampering(self):
        tag, db, rng = fwcfp_world()
        mask = rng.nonzero_bits(db.params.alias_bits)
        outcome = fwcfp_desync_attack(tag, db, mask, attempts=0, rng=rng)
        tampered = [e for e in outcome.tampered_session.entries if e.note == "tampered"]
        assert len(tampered) == 1 and tampered[0].flow == "flow3"
        assert tampered[0].sender == "adversary"

    def test_reapplying_the_mask_restores_synchronization(self):
        # XOR is self-inverse: masking the tag's outgoing alias undoes the
        # damage, the reader accepts, and a clean alias gets issued
        for seed in range(10):
            tag, db, rng = fwcfp_world(seed=seed)
            mask = rng.nonzero_bits(db.params.alias_bits)
            outcome = fwcfp_desync_attack(tag, db, mask, attempts=3, rng=rng)
            assert outcome.rejects == 3
            repaired = fwcfp_undo_desync(tag, db, mask, rng)
            assert repaired.both_accepted
            assert fwcfp.alias_identity(db, tag) == tag.bookkeeping_idt
            assert fwcfp.run_honest_session(tag, db, rng).both_accepted

    def test_outcome_serializes(self):
        tag, db, rng = fwcfp_world()
        mask = rng.nonzero_bits(db.params.alias_bits)
        outcome = fwcfp_desync_attack(tag, db, mask, attempts=2, rng=rng)
        doc = outcome.to_dict()
        assert doc["rejects"] == 2
        assert doc["mask"] == mask.render()
        assert doc["tampered_session"]  # embedded for audit


def collect_conditional_outcomes(protocol, strategy_name, params, trials, seed):
    by_bit = {0: [], 1: []}
    for i in range(trials):
        status, b, guess = run_single(protocol, strategy_name, params, seed, i)
        by_bit[b].append(guess)
    return by_bit


def run_single(protocol, strategy_name, params, seed, index):
    from rfidlab.game import run_single_trial

    outcome = run_single_trial(protocol, strategy_name, params, seed, index)
    assert outcome[0] == "ok"
    return outcome


class TestFwcfpTrace:
    def test_guesses_zero_whenever_the_hidden_tag_is_zero(self):
        by_bit = collect_conditional_outcomes("fwcfp", "fwcfp-trace", fwcfp.FwcfpParams(), 600, 10)
        assert set(by_bit[0]) == {0}

    def test_full_width_hash_never_collides_in_sample(self):
        by_bit = collect_conditional_outcomes("fwcfp", "fwcfp-trace", fwcfp.FwcfpParams(), 600, 10)
        assert set(by_bit[1]) == {1}

    def test_success_rate_at_n4_matches_case_analysis(self):
        report = pooled_estimate("fwcfp", "fwcfp-trace", fwcfp.FwcfpParams(hash_bits=4), 40_000, 10)
        assert report.empirical_p == pytest.approx(1 - 2**-5, abs=0.01)

    def test_uses_flow2_nonce_and_flow3_hash(self):
        # the learning phase reads rand2 from the tag's message and the keyed
        # hash of rand2 from the reader's reply
        game_params = fwcfp.FwcfpParams()
        strategy = FwcfpTraceStrategy(Rng(1), game_params)
        outcome = run_upriv_game(PROTOCOLS["fwcfp"], game_params, strategy, Rng(2))
        assert outcome[0] == "ok"
        assert strategy._nonce.width == game_params.nonce_bits
        assert strategy._expected.width == game_params.hash_bits


class TestFwcfpBackwardTrace:
    def test_perfect_when_hidden_tag_is_zero(self):
        by_bit = collect_conditional_outcomes("fwcfp", "fwcfp-backtrace", fwcfp.FwcfpParams(), 600, 20)
        assert set(by_bit[0]) == {0}
        assert set(by_bit[1]) == {1}

    def test_advantage_at_n8_matches_case_analysis(self):
        report = pooled_estimate(
            "fwcfp", "fwcfp-backtrace", fwcfp.FwcfpParams(hash_bits=8), 40_000, 20
        )
        assert report.empirical_adv == pytest.approx(0.5 - 2**-9, abs=0.01)

    def test_corrupt_leaves_the_tag_unchanged(self):
        from rfidlab.game import UprivGame, GameDriver

        game = UprivGame(
            PROTOCOLS["fwcfp"], fwcfp.FwcfpParams(), Rng(3),
            corrupt_policy=FwcfpBackwardTraceStrategy.corrupt_policy,
        )
        before = (game.tag0.k, game.tag0.idta)
        strategy = FwcfpBackwardTraceStrategy(Rng(4), fwcfp.FwcfpParams())
        handle = game.run_test()
        strategy.challenge(GameDriver(game), handle)
        assert (game.tag0.k, game.tag0.idta) == before

    def test_missing_archive_aborts_the_trial(self):
        class NoArchiveDriver:
            def execute(self, ref):
                return Transcript(session="s0", protocol="fwcfp", params={})

        strategy = FwcfpBackwardTraceStrategy(Rng(1), fwcfp.FwcfpParams())
        with pytest.raises(TrialAbort):
            strategy.challenge(NoArchiveDriver(), handle=None)


class TestLwjxTrace:
    def test_aborted_learning_probe_leaves_tag_state_bitwise_unchanged(self):
        from rfidlab.game import UprivGame, GameDriver

        for seed in range(200):
            game = UprivGame(PROTOCOLS["lwjx"], lwjx.LwjxParams(), Rng(seed))
            before = (game.tag0.id, game.tag0.k, game.tag1.id, game.tag1.k)
            strategy = LwjxTraceStrategy(Rng(seed + 1), lwjx.LwjxParams())
            strategy.learning(GameDriver(game))
            assert (game.tag0.id, game.tag0.k, game.tag1.id, game.tag1.k) == before

    def test_id_hash_mode_always_right_when_tag_zero(self):
        by_bit = collect_conditional_outcomes("lwjx", "lwjx-trace-id", lwjx.LwjxParams(), 600, 30)
        assert set(by_bit[0]) == {0}

    def test_key_hash_mode_at_n4_matches_case_analysis(self):
        report = pooled_estimate("lwjx", "lwjx-trace-key", lwjx.LwjxParams(hash_bits=4), 40_000, 30)
        assert report.empirical_p == pytest.approx(1 - 2**-5, abs=0.01)

    def test_modes_disagree_exactly_on_single_collisions(self):
        # enumeration oracle: equal hashes are certain under b = 0; under
        # b = 1 each comparison collides independently with chance 2^-n, and
        # the guesses differ when exactly one collides
        n = 4
        p = 2.0**-n
        expected = 0.5 * (p * (1 - p) + (1 - p) * p)

        params = lwjx.LwjxParams(hash_bits=n)
        trials = 10_000
        disagreements = 0
        for i in range(trials):
            strategy = LwjxTraceStrategy(Rng(40, 2 * i + 1), params)
            outcome = run_upriv_game(PROTOCOLS["lwjx"], params, strategy, Rng(40, 2 * i))
            assert outcome[0] == "ok"
            guess_by_id = 0 if strategy.id_equal else 1
            guess_by_key = 0 if strategy.key_equal else 1
            disagreements += int(guess_by_id != guess_by_key)
        rate = disagreements / trials
        sd = (expected * (1 - expected) / trials) ** 0.5
        assert abs(rate - expected) <= 3 * sd
