import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rfidlab
from rfidlab import attacks  # noqa: F401  (registers strategies)
from rfidlab import crypto, fwcfp, lwjx
from rfidlab.cli import canonical_report_bytes
from rfidlab.game import (
    BUDGET,
    CORRUPT_AFTER_ARCHIVE,
    PROTOCOLS,
    STRATEGY_FACTORIES,
    AdversaryStrategy,
    PhaseViolation,
    UprivGame,
    estimate_advantage,
    exact_advantage,
    nominal_advantage,
    run_single_trial,
    run_upriv_game,
)
from rfidlab.rng import Rng
from rfidlab.session import MAX_OPEN_SESSIONS, ProtocolError, RejectMessage

FWCFP = fwcfp.FwcfpParams()
FWCFP_N8 = fwcfp.FwcfpParams(hash_bits=8)

# (protocol, strategy, message): the pairs the game refuses, and its ValueError
MISFITS = [
    ("lwjx", "fwcfp-trace", "strategy 'fwcfp-trace' attacks fwcfp, not lwjx"),
    ("lwjx", "fwcfp-backtrace", "strategy 'fwcfp-backtrace' attacks fwcfp, not lwjx"),
    ("fwcfp", "lwjx-trace-id", "strategy 'lwjx-trace-id' attacks lwjx, not fwcfp"),
    ("fwcfp", "lwjx-trace-key", "strategy 'lwjx-trace-key' attacks lwjx, not fwcfp"),
    ("fwcfp", "no-such-strategy", "unknown strategy 'no-such-strategy'"),
    ("nfc", "coin-flip", "unknown protocol 'nfc'"),
]
MISFIT_IDS = ["lwjx-fwcfp-trace", "lwjx-fwcfp-backtrace", "fwcfp-lwjx-trace-id",
              "fwcfp-lwjx-trace-key", "unknown-strategy", "unknown-protocol"]


def fresh_game(protocol="fwcfp", params=None, seed=1, **kw):
    params = params or (FWCFP if protocol == "fwcfp" else lwjx.LwjxParams())
    return UprivGame(PROTOCOLS[protocol], params, Rng(seed), **kw)


class TestExecuteQuery:
    def test_transcripts_have_the_protocol_flow_count(self):
        def flow_count(transcript):
            flows = ("flow1", "flow2", "flow3", "flow4")
            return sum(e.flow in flows for e in transcript.entries)

        assert flow_count(fresh_game("fwcfp").execute(0)) == 4
        assert flow_count(fresh_game("lwjx").execute(0)) == 3

    def test_two_executes_draw_different_nonces(self):
        game = fresh_game()
        t1 = game.execute(0)
        t2 = game.execute(0)
        assert t1.delivered("flow1")["rand1"] != t2.delivered("flow1")["rand1"]

    def test_transcripts_never_disclose_secrets(self):
        game = fresh_game()
        assert game.execute(0).secrets is None


class TestSendQuery:
    def test_flow1_to_tag_returns_its_flow2(self):
        game = fresh_game()
        reply = game.send_to_tag(0, fwcfp.Flow1(Rng(9).bits(96)))
        assert isinstance(reply, fwcfp.Flow2)
        assert reply.idta == game.tag0.idta

    def test_malformed_widths_draw_a_protocol_reject_not_a_crash(self):
        game = fresh_game()
        reply = game.send_to_tag(0, fwcfp.Flow1(Rng(9).bits(8)))
        assert reply == RejectMessage()

    def test_abandoned_session_leaves_tag_state_unchanged(self):
        game = fresh_game("lwjx")
        before = (game.tag0.id, game.tag0.k)
        game.send_to_tag(0, lwjx.Flow1(Rng(9).bits(96)))
        assert (game.tag0.id, game.tag0.k) == before

    def test_adversary_can_relay_through_the_reader(self):
        # man-in-the-middle: open a reader session, feed its challenge to the
        # tag, and hand the tag's answer back; the reader responds with flow3
        game = fresh_game()
        sid, flow1 = game.reader_begin()
        flow2 = game.send_to_tag(0, flow1)
        reply = game.send_to_reader(sid, flow2)
        assert isinstance(reply, fwcfp.Flow3)

    def test_replayed_flow2_fails_against_a_fresh_session(self):
        game = fresh_game()
        sid, flow1 = game.reader_begin()
        flow2 = game.send_to_tag(0, flow1)
        sid2, _ = game.reader_begin()  # new rand1; the captured h1 is stale
        assert game.send_to_reader(sid2, flow2) == RejectMessage()

    def test_second_flow2_on_a_closed_lwjx_session_draws_a_reject(self):
        # the reader closes a session on its verdict; a resent flow2 finds
        # no session, and the game turns that ProtocolError into a reject
        game = fresh_game("lwjx")
        sid, flow1 = game.reader_begin()
        flow2 = game.send_to_tag(0, flow1)
        assert isinstance(game.send_to_reader(sid, flow2), lwjx.Flow3)
        assert sid not in game.db.sessions
        assert game.send_to_reader(sid, flow2) == RejectMessage()

    def test_flow3_tampering_is_expressible_through_send_queries(self):
        # relay a full session, XORing one mask into both halves of flow3;
        # the tag accepts and is desynchronized from then on
        game = fresh_game()
        mask = Rng(5).nonzero_bits(game.db.params.alias_bits)
        sid, flow1 = game.reader_begin()
        flow2 = game.send_to_tag(0, flow1)
        flow3 = game.send_to_reader(sid, flow2)
        tampered = fwcfp.Flow3(h2=flow3.h2, a=flow3.a ^ mask, b=flow3.b ^ mask)
        reply = game.send_to_tag(0, tampered)
        assert isinstance(reply, fwcfp.Flow4) and reply.ok
        followup = game.execute(0)
        verdicts = [e for e in followup.entries if e.flow == "verdict"]
        assert verdicts[0].fields["outcome"] == "reject"


class TestOpenReaderSessions:
    """A reader keeps at most MAX_OPEN_SESSIONS sessions waiting for a flow2."""

    @staticmethod
    def world(protocol):
        rng = Rng(3)
        spec = PROTOCOLS[protocol]
        db = spec.new_reader(FWCFP if protocol == "fwcfp" else lwjx.LwjxParams(), rng)
        return spec, spec.provision(db, rng), db, rng

    def test_no_game_trial_can_evict(self):
        # each reader_begin is a query, so a trial opens at most BUDGET sessions
        assert MAX_OPEN_SESSIONS >= BUDGET

    @pytest.mark.parametrize("protocol, blocked", [("fwcfp", "flow2"), ("lwjx", "flow1")])
    def test_blocked_sessions_leave_a_bounded_table(self, protocol, blocked):
        spec, tag, db, rng = self.world(protocol)
        module = fwcfp if protocol == "fwcfp" else lwjx

        def block(flow, message):
            return None if flow == blocked else message

        for _ in range(100):
            assert module.run_honest_session(tag, db, rng, interpose=block).reader_verdict is None
        assert len(db.sessions) == min(100, MAX_OPEN_SESSIONS)
        assert spec.run_session(tag, db, rng).both_accepted

    @pytest.mark.parametrize("protocol", ["fwcfp", "lwjx"])
    def test_the_oldest_session_is_evicted_and_then_unknown(self, protocol):
        spec, tag, db, rng = self.world(protocol)
        first, flow1 = db.begin(rng)
        flow2 = tag.respond(flow1, rng)
        later = [db.begin(rng)[0] for _ in range(MAX_OPEN_SESSIONS)]
        assert list(db.sessions) == later
        with pytest.raises(ProtocolError, match="unknown session"):
            db.authenticate(first, flow2, rng)

    @pytest.mark.parametrize("protocol", ["fwcfp", "lwjx"])
    def test_an_evicted_session_draws_a_plain_reject_in_the_game(self, protocol):
        game = fresh_game(protocol)
        sid, flow1 = game.reader_begin()
        flow2 = game.send_to_tag(0, flow1)
        for _ in range(MAX_OPEN_SESSIONS):
            newest, newest_flow1 = game.db.begin(game.rng)
        assert sid not in game.db.sessions
        assert game.send_to_reader(sid, flow2) == RejectMessage()
        reply = game.send_to_reader(newest, game.send_to_tag(0, newest_flow1))
        assert isinstance(reply, PROTOCOLS[protocol].flow3)


class TestCorruptQuery:
    def test_readback_matches_stored_state(self):
        game = fresh_game()
        secrets = game.corrupt(0)
        assert secrets == {"k": game.tag0.k, "idta": game.tag0.idta}

    def test_identity_overwrite_is_a_pure_read(self):
        game = fresh_game()
        before = dict(k=game.tag0.k, idta=game.tag0.idta)
        game.corrupt(0, dict(before))
        assert (game.tag0.k, game.tag0.idta) == (before["k"], before["idta"])

    def test_replacement_is_applied(self):
        game = fresh_game()
        new = {"k": Rng(3).bits(96), "idta": Rng(4).bits(128)}
        game.corrupt(0, new)
        assert (game.tag0.k, game.tag0.idta) == (new["k"], new["idta"])

    def test_lwjx_corrupt_returns_id_and_key(self):
        game = fresh_game("lwjx")
        assert game.corrupt(1) == {"id": game.tag1.id, "k": game.tag1.k}

    def test_handle_is_not_a_corrupt_target(self):
        game = fresh_game()
        handle = game.run_test()
        with pytest.raises(ValueError):
            game.corrupt(handle)


class TestTestQuery:
    def test_bit_is_close_to_uniform(self):
        counts = 0
        games = 10_000
        for s in range(games):
            game = fresh_game("lwjx", seed=s)
            game.run_test()
            counts += game.b
        sd = math.sqrt(0.25 / games)
        assert abs(counts / games - 0.5) <= 3 * sd

    def test_double_test_rejected(self):
        game = fresh_game()
        game.run_test()
        with pytest.raises(PhaseViolation):
            game.run_test()

    def test_handle_routes_to_exactly_one_tag(self):
        # the hidden tag answers with its own alias and is the only one
        # left waiting for a flow3; the seeds draw both values of b
        hidden = set()
        for seed in range(1, 9):
            game = fresh_game(seed=seed)
            handle = game.run_test()
            reply = game.send_to_tag(handle, fwcfp.Flow1(Rng(9).bits(96)))
            tags = (game.tag0, game.tag1)
            assert reply.idta == tags[game.b].idta
            assert [tag._session is not None for tag in tags] == [i == game.b for i in (0, 1)]
            hidden.add(game.b)
        assert hidden == {0, 1}

    def test_handle_token_carries_no_information_about_b(self):
        # the token is drawn before the bit; check a bit of the serialized
        # form stays uncorrelated with b across many games
        first_bits = {0: [], 1: []}
        for s in range(4000):
            game = fresh_game("lwjx", seed=s)
            handle = game.run_test()
            first_bits[game.b].append(handle.token.value >> 127)
        mean0 = sum(first_bits[0]) / len(first_bits[0])
        mean1 = sum(first_bits[1]) / len(first_bits[1])
        sd = math.sqrt(0.25 / len(first_bits[0]) + 0.25 / len(first_bits[1]))
        assert abs(mean0 - mean1) <= 3 * sd

    def test_handles_are_fresh_per_game(self):
        tokens = set()
        for s in range(100):
            game = fresh_game("lwjx", seed=s)
            tokens.add(game.run_test().token)
        assert len(tokens) == 100


class TestPhaseDiscipline:
    def test_challenge_refs_require_a_live_handle(self):
        from rfidlab.game import ChallengeHandle

        game = fresh_game()
        foreign = ChallengeHandle(Rng(123).bits(128))
        with pytest.raises(PhaseViolation):
            game.execute(foreign)  # no handle has been issued yet
        handle = game.run_test()
        game.execute(handle)
        with pytest.raises(PhaseViolation):
            game.execute(foreign)  # still not this game's handle

    def test_corrupt_on_candidates_forbidden_in_challenge(self):
        game = fresh_game()
        game.run_test()
        with pytest.raises(PhaseViolation):
            game.corrupt(0)

    def test_backward_variant_needs_the_archive_first(self):
        game = fresh_game(corrupt_policy=CORRUPT_AFTER_ARCHIVE)
        handle = game.run_test()
        with pytest.raises(PhaseViolation):
            game.corrupt(0)
        game.execute(0)  # a learning-tag session does not count
        with pytest.raises(PhaseViolation):
            game.corrupt(0)
        game.execute(handle)
        game.corrupt(0)

    def test_no_queries_after_guess_begins(self):
        game = fresh_game()
        game.run_test()
        game.begin_guess()
        for query in (
            lambda: game.execute(0),
            lambda: game.send_to_tag(0, fwcfp.Flow1(Rng(1).bits(96))),
            lambda: game.corrupt(0),
            lambda: game.reader_begin(),
        ):
            with pytest.raises(PhaseViolation):
                query()

    @given(st.lists(st.sampled_from(["execute", "send", "corrupt", "test"]), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_random_sequences_match_the_reference_rules(self, ops):
        # reference automaton: before test everything is legal; after test,
        # corrupt on a (candidate) tag is the only illegal query here
        game = fresh_game("lwjx", params=lwjx.LwjxParams(bits=16, hash_bits=16))
        tested = False
        for op in ops:
            legal = {"execute": True, "send": True, "test": not tested,
                     "corrupt": not tested}[op]
            try:
                if op == "execute":
                    game.execute(0)
                elif op == "send":
                    game.send_to_tag(1, lwjx.Flow1(Rng(1).bits(16)))
                elif op == "corrupt":
                    game.corrupt(0)
                else:
                    game.run_test()
                    tested = True
                assert legal, f"{op} should have raised"
            except PhaseViolation:
                assert not legal, f"{op} should have been allowed"


class SpendthriftStrategy(AdversaryStrategy):
    """Spends ``queries`` Execute queries while learning, then guesses 0."""

    def __init__(self, rng, queries=10_000):
        self.rng = rng
        self.queries = queries

    def learning(self, driver):
        for _ in range(self.queries):
            driver.execute(0)

    def guess(self):
        return 0


class TestGameRunner:
    def test_coin_flip_has_no_advantage(self):
        report = estimate_advantage("fwcfp", "coin-flip", FWCFP_N8, 10_000, seed=5)
        assert report.empirical_adv < 3 * report.ci95

    def test_budget_exhaustion_discards_the_trial(self):
        outcome = run_upriv_game(PROTOCOLS["fwcfp"], FWCFP, SpendthriftStrategy(Rng(1)), Rng(2))
        assert outcome == ("discarded", "budget-exceeded")

    def test_the_last_query_within_the_budget_is_allowed(self):
        def spend(queries):
            strategy = SpendthriftStrategy(Rng(1), queries)
            return run_upriv_game(PROTOCOLS["fwcfp"], FWCFP, strategy, Rng(2))

        assert spend(BUDGET)[0] == "ok"
        assert spend(BUDGET + 1) == ("discarded", "budget-exceeded")

    def test_discards_are_reported_not_crashed(self, monkeypatch):
        monkeypatch.setitem(
            STRATEGY_FACTORIES, "test-spendthrift", lambda rng, params: SpendthriftStrategy(rng)
        )
        report = estimate_advantage("fwcfp", "test-spendthrift", FWCFP, 20, seed=5)
        assert report.trials_completed == 0
        assert report.discarded == 20
        assert report.discard_reasons == {"budget-exceeded": 20}

    def test_trial_order_does_not_change_outcomes(self):
        forward = [run_single_trial("fwcfp", "fwcfp-trace", FWCFP_N8, 77, i) for i in range(60)]
        backward = [run_single_trial("fwcfp", "fwcfp-trace", FWCFP_N8, 77, i) for i in reversed(range(60))]
        assert sorted(map(repr, forward)) == sorted(map(repr, backward))

    def test_same_seed_reproduces_the_report(self):
        a = estimate_advantage("fwcfp", "fwcfp-trace", FWCFP_N8, 200, seed=3, timestamp=False)
        b = estimate_advantage("fwcfp", "fwcfp-trace", FWCFP_N8, 200, seed=3, timestamp=False)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    def test_worker_pool_matches_serial_execution(self, strategy_name):
        protocol = "lwjx" if strategy_name.startswith("lwjx") else "fwcfp"
        params = (lwjx.LwjxParams if protocol == "lwjx" else fwcfp.FwcfpParams)(hash_bits=8)
        serial = estimate_advantage(protocol, strategy_name, params, 200, seed=11, timestamp=False)
        pooled = estimate_advantage(protocol, strategy_name, params, 200, seed=11, timestamp=False, workers=2)
        assert serial.to_dict() == pooled.to_dict()

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    def test_report_does_not_depend_on_the_oracle_table(self, strategy_name):
        protocol = "lwjx" if strategy_name.startswith("lwjx") else "fwcfp"
        params = (lwjx.LwjxParams if protocol == "lwjx" else fwcfp.FwcfpParams)(hash_bits=8)

        def report():
            doc = estimate_advantage(protocol, strategy_name, params, 200, seed=11, timestamp=False)
            return canonical_report_bytes(doc.to_dict())

        crypto._oracle.cache_clear()
        cleared = report()
        for value in range(64):
            crypto.expand_mask(crypto.g_params(96), 96, value, 512)
        assert crypto._oracle.cache_info().currsize == 32
        assert report() == cleared

    def test_worker_pool_never_outgrows_the_host(self, monkeypatch):
        import multiprocessing

        sizes, chunks = [], []

        class RecordingPool:
            """Records the size asked for and maps in this process: starts nothing."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                chunks.append(len(items))
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        serial = estimate_advantage("fwcfp", "fwcfp-trace", FWCFP_N8, 200, seed=11, timestamp=False)
        pooled = estimate_advantage(
            "fwcfp", "fwcfp-trace", FWCFP_N8, 200, seed=11, timestamp=False, workers=10_000
        )
        cpus = os.cpu_count() or 1
        assert len(sizes) == 1 and 1 <= sizes[0] <= cpus
        assert chunks[0] < 16 * cpus  # chunks sized for the processes started, not those asked for
        assert pooled.to_dict() == serial.to_dict()

    def test_an_estimate_does_not_hold_every_outcome(self, monkeypatch):
        monkeypatch.setattr(
            rfidlab.game, "run_single_trial", lambda *args: ("ok", args[-1] % 2, 0)
        )
        tracemalloc.start()
        try:
            report = estimate_advantage("fwcfp", "coin-flip", FWCFP_N8, 200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.trials_completed, report.correct) == (200_000, 100_000)
        assert peak < 1 << 20  # a list of 200 000 outcomes alone would take about 14 MB

    def test_each_strategy_names_the_protocol_it_attacks(self):
        protocols = {name: cls.protocol for name, cls in STRATEGY_FACTORIES.items()}
        assert protocols == {
            "coin-flip": None,
            "fwcfp-trace": "fwcfp",
            "fwcfp-backtrace": "fwcfp",
            "lwjx-trace-id": "lwjx",
            "lwjx-trace-key": "lwjx",
        }

    @pytest.mark.parametrize("protocol, strategy_name, message", MISFITS, ids=MISFIT_IDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_strategy_that_does_not_fit_fails_before_any_trial(
        self, monkeypatch, protocol, strategy_name, message, workers
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(rfidlab.game, "run_single_trial", no_trial)
        params = lwjx.LwjxParams(hash_bits=8) if protocol == "lwjx" else FWCFP_N8
        with pytest.raises(ValueError) as caught:
            estimate_advantage(protocol, strategy_name, params, 10, seed=1, workers=workers)
        assert str(caught.value) == message

    @pytest.mark.parametrize("protocol, strategy_name, message", MISFITS, ids=MISFIT_IDS)
    def test_a_single_trial_of_a_strategy_that_does_not_fit_fails_alike(
        self, protocol, strategy_name, message
    ):
        params = lwjx.LwjxParams(hash_bits=8) if protocol == "lwjx" else FWCFP_N8
        with pytest.raises(ValueError) as caught:
            run_single_trial(protocol, strategy_name, params, 1, 0)
        assert str(caught.value) == message

    def test_coin_flip_fits_both_protocols(self):
        for protocol, params in [("fwcfp", FWCFP_N8), ("lwjx", lwjx.LwjxParams(hash_bits=8))]:
            report = estimate_advantage(protocol, "coin-flip", params, 20, seed=1)
            assert report.trials_completed == 20

    def test_strategy_table_names_the_pinned_strategies(self):
        from test_report_digests import CLI_ARGS

        assert set(STRATEGY_FACTORIES) == {case.split("/")[0] for case in CLI_ARGS}

    def test_game_alone_finds_the_attack_strategies(self):
        # every test module imports attacks already; only a fresh interpreter
        # that imports nothing but the game reaches the lookup's miss path
        src = Path(rfidlab.__file__).resolve().parent.parent
        probe = (
            "import json, sys\n"
            "from rfidlab import fwcfp, game\n"
            "assert 'rfidlab.attacks' not in sys.modules\n"
            "report = game.estimate_advantage('fwcfp', 'fwcfp-trace',"
            " fwcfp.FwcfpParams(hash_bits=8), 100, 3, timestamp=False)\n"
            "print(json.dumps(report.to_dict()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        here = estimate_advantage("fwcfp", "fwcfp-trace", FWCFP_N8, 100, 3, timestamp=False)
        assert json.loads(out.stdout) == here.to_dict()

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # only a worker pool needs multiprocessing; a fresh interpreter shows
        # whether importing the CLI pulls it in
        src = Path(rfidlab.__file__).resolve().parent.parent
        probe = "import sys, rfidlab.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_package_and_bits_imports_load_only_what_they_name(self):
        # the package re-exports nothing, so importing it or one leaf module
        # pulls in no other rfidlab module
        src = Path(rfidlab.__file__).resolve().parent.parent
        probe = (
            "import sys, importlib\n"
            "importlib.import_module(sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m.startswith('rfidlab.')))"
        )
        for module, loaded in (("rfidlab", "[]"), ("rfidlab.bits", "['rfidlab.bits']")):
            out = subprocess.run(
                [sys.executable, "-c", probe, module],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            assert out.stdout.strip() == loaded, module


def enumerated_advantage(hash_bits: int) -> float:
    """Brute-force oracle: enumerate (b, collision) outcomes of the guess rule."""
    collision = 2.0**-hash_bits
    win = 0.0
    for b, weight in ((0, 0.5), (1, 0.5)):
        for collides, chance in ((True, collision), (False, 1 - collision)):
            equal = b == 0 or collides
            guess = 0 if equal else 1
            win += weight * chance * (guess == b)
    return abs(win - 0.5)


class TestReferenceValues:
    def test_nominal_advantage_formula(self):
        assert nominal_advantage(1) == 0.0
        assert nominal_advantage(8) == 0.49609375

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 96])
    def test_exact_advantage_matches_enumeration(self, n):
        assert exact_advantage(n) == pytest.approx(enumerated_advantage(n), abs=1e-12)

    def test_exact_advantage_spot_value(self):
        assert exact_advantage(2) == 0.375

    def test_report_carries_both_references(self):
        report = estimate_advantage("fwcfp", "fwcfp-trace", fwcfp.FwcfpParams(hash_bits=2), 3000, seed=21)
        assert report.nominal_adv == 0.25
        assert report.exact_adv == 0.375
        assert abs(report.empirical_adv - 0.375) < 0.05
        assert report.nominal_within_ci is False
