"""The untraceability game: adversary queries, phases, advantage estimation.

An adversary interacts with two tags and a reader through four queries.
Execute runs an honest session and returns its transcript; Send delivers
a chosen message to a tag or to the reader (and, through the session
drivers' interposers, can block or alter in-flight messages); Corrupt
reads and overwrites a tag's stored secrets; Test draws the hidden bit b
and hands back an opaque handle that routes to one of the two candidate
tags.

A game moves through a learning phase, a challenge phase opened by the
single Test query, and a guess phase in which the strategy commits to a
bit. Corrupting a candidate during the challenge phase is normally a
phase violation; the backward-untraceability variant permits it once an
Execute through the challenge handle has completed, which reproduces the
corrupt-after-the-fact timeline that attack needs. Every game allows the
same fixed number of queries, ``BUDGET``; a strategy that spends more has
its trial discarded.

Advantage runs execute many independent trials, each with fresh tags,
its own reader and disjoint randomness streams, and compare the measured
advantage |Pr[guess = b] - 1/2| against two closed forms: the commonly
quoted ``nominal`` value 1/2 - 2^-n, which charges every hash collision
as a loss, and the ``exact`` value 1/2 - 2^-(n+1) under a uniform
challenge bit, where a collision only misleads when b = 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from . import fwcfp, lwjx
from .bits import BitString
from .crypto import HASH_NAME
from .rng import Rng
from .session import Protocol, ProtocolError, RejectMessage
from .transcript import Transcript

SCHEMA_VERSION = 1
BUDGET = 64

LEARNING = "learning"
CHALLENGE = "challenge"
GUESS = "guess"

CORRUPT_NEVER = "never"
CORRUPT_AFTER_ARCHIVE = "after-challenge-archive"


class PhaseViolation(RuntimeError):
    """A query was issued in a phase that does not permit it."""


class BudgetExceeded(RuntimeError):
    """The strategy spent more queries than ``BUDGET``."""


class TrialAbort(RuntimeError):
    """A strategy gave up on this trial; the trial is discarded, not failed."""


@dataclass(frozen=True)
class ChallengeHandle:
    """Opaque routing token for the hidden tag; the token is fresh randomness."""

    token: BitString


PROTOCOLS = {fwcfp.PROTOCOL_NAME: fwcfp.PROTOCOL, lwjx.PROTOCOL_NAME: lwjx.PROTOCOL}


def _distinct_pair(rng: Rng, width: int) -> tuple[BitString, BitString]:
    """Two different values of one width, the second redrawn until it differs."""
    first = rng.bits(width)
    second = rng.bits(width)
    while second == first:
        second = rng.bits(width)
    return first, second


def fresh_trial(protocol: Protocol, params, rng: Rng):
    """A new reader and two tags with distinct identifiers and distinct keys."""
    db = protocol.new_reader(params, rng)
    id_bits, key_bits = protocol.widths(params)
    id0, id1 = _distinct_pair(rng, id_bits)
    k0, k1 = _distinct_pair(rng, key_bits)
    return protocol.provision(db, rng, id0, k0), protocol.provision(db, rng, id1, k1), db


class UprivGame:
    """One three-phase game over a fresh pair of tags and a fresh reader."""

    def __init__(
        self,
        protocol: Protocol,
        params,
        rng: Rng,
        *,
        corrupt_policy: str = CORRUPT_NEVER,
    ):
        self.protocol = protocol
        self.rng = rng
        self.tag0, self.tag1, self.db = fresh_trial(protocol, params, rng)
        self.phase = LEARNING
        self.b: int | None = None
        self.handle: ChallengeHandle | None = None
        self.queries_used = 0
        self.corrupt_policy = corrupt_policy
        self._challenge_archived = False

    def _require_phase(self, *allowed):
        if self.phase not in allowed:
            raise PhaseViolation(
                f"query not allowed in the {self.phase} phase"
            )

    def _charge(self):
        self.queries_used += 1
        if self.queries_used > BUDGET:
            raise BudgetExceeded(f"query budget of {BUDGET} exhausted")

    def _tag_index(self, ref) -> tuple[int, bool]:
        if isinstance(ref, ChallengeHandle):
            if self.handle is None or ref.token != self.handle.token:
                raise PhaseViolation("no such challenge handle in this game")
            return self.b, True
        if ref in (0, 1):
            return ref, False
        raise ValueError(f"tag reference must be 0, 1 or the challenge handle: {ref!r}")

    def execute(self, ref) -> Transcript:
        """Run a full honest session with the referenced tag; return its transcript."""
        self._require_phase(LEARNING, CHALLENGE)
        self._charge()
        index, via_handle = self._tag_index(ref)
        tag = (self.tag0, self.tag1)[index]
        result = self.protocol.run_session(tag, self.db, self.rng)
        if via_handle and self.phase == CHALLENGE:
            self._challenge_archived = True
        return result.transcript

    def send_to_tag(self, ref, message):
        """Deliver an adversary-chosen message; malformed input draws a plain reject."""
        self._require_phase(LEARNING, CHALLENGE)
        self._charge()
        index, _ = self._tag_index(ref)
        tag = (self.tag0, self.tag1)[index]
        try:
            if isinstance(message, self.protocol.flow1):
                return tag.respond(message, self.rng)
            if isinstance(message, self.protocol.flow3):
                return self.protocol.finalize(tag, message)[1]
        except ProtocolError:
            pass
        return RejectMessage()  # malformed, or no message a tag answers

    def reader_begin(self):
        self._require_phase(LEARNING, CHALLENGE)
        self._charge()
        return self.db.begin(self.rng)

    def send_to_reader(self, sid, message):
        self._require_phase(LEARNING, CHALLENGE)
        self._charge()
        try:
            return self.db.authenticate(sid, message, self.rng)[1]
        except ProtocolError:
            return RejectMessage()

    def corrupt(self, ref, replacement=None) -> dict:
        """Read out a candidate tag's secrets, optionally overwriting them."""
        if ref not in (0, 1):
            raise ValueError("corrupt takes a named tag, not the challenge handle")
        self._require_phase(LEARNING, CHALLENGE)
        if self.phase == CHALLENGE:
            # both tags of a trial are the designated candidates
            if self.corrupt_policy != CORRUPT_AFTER_ARCHIVE:
                raise PhaseViolation("candidate tags stay fresh during the challenge")
            if not self._challenge_archived:
                raise PhaseViolation(
                    "corrupt must come after the challenge session is archived"
                )
        self._charge()
        tag = (self.tag0, self.tag1)[ref]
        secrets = {name: getattr(tag, name) for name in self.protocol.state}
        if replacement is not None:
            new = {name: replacement[name] for name in secrets}
            if any(new[name].width != secrets[name].width for name in secrets):
                raise ProtocolError("replacement secrets have the wrong widths")
            for name, value in new.items():
                setattr(tag, name, value)
        return secrets

    def run_test(self) -> ChallengeHandle:
        """Draw the hidden bit and open the challenge phase. Once per game."""
        if self.b is not None:
            raise PhaseViolation("test may be invoked exactly once")
        self._require_phase(LEARNING)
        token = self.rng.bits(128)
        self.b = self.rng.bit()
        self.handle = ChallengeHandle(token)
        self.phase = CHALLENGE
        return self.handle

    def begin_guess(self):
        self._require_phase(CHALLENGE)
        self.phase = GUESS


class GameDriver:
    """The query surface a strategy sees; game internals stay out of reach."""

    def __init__(self, game: UprivGame):
        self._game = game

    def execute(self, ref) -> Transcript:
        return self._game.execute(ref)

    def send_to_tag(self, ref, message):
        return self._game.send_to_tag(ref, message)

    def reader_begin(self):
        return self._game.reader_begin()

    def send_to_reader(self, sid, message):
        return self._game.send_to_reader(sid, message)

    def corrupt(self, ref, replacement=None):
        return self._game.corrupt(ref, replacement)


class AdversaryStrategy:
    """Base class; subclasses fill in the three phases."""

    corrupt_policy = CORRUPT_NEVER
    protocol: str | None = None  # the protocol attacked; None fits every protocol

    def __init__(self, rng: Rng, params):
        self.rng = rng
        self.params = params

    def learning(self, driver: GameDriver):
        pass

    def challenge(self, driver: GameDriver, handle: ChallengeHandle):
        pass

    def guess(self) -> int:
        raise NotImplementedError


class CoinFlipStrategy(AdversaryStrategy):
    """Ignores the protocol entirely; calibrates the harness at advantage 0."""

    def guess(self) -> int:
        return self.rng.bit()


# strategy name -> strategy class, built as cls(adversary rng, params);
# attacks.py adds its entries
STRATEGY_FACTORIES = {"coin-flip": CoinFlipStrategy}


def run_upriv_game(protocol, params, strategy: AdversaryStrategy, world_rng: Rng):
    """Learning, test, challenge, guess. Returns ("ok", b, guess) or a discard."""
    game = UprivGame(protocol, params, world_rng, corrupt_policy=strategy.corrupt_policy)
    driver = GameDriver(game)
    try:
        strategy.learning(driver)
        handle = game.run_test()
        strategy.challenge(driver, handle)
        game.begin_guess()
        guess = strategy.guess()
    except BudgetExceeded:
        return ("discarded", "budget-exceeded")
    except TrialAbort as exc:
        return ("discarded", str(exc) or "aborted")
    if guess not in (0, 1):
        return ("discarded", "guess-not-a-bit")
    return ("ok", game.b, guess)


def _strategy_class(protocol_name: str, strategy_name: str):
    """The named strategy's factory; ValueError unless both names are known and it fits.

    A factory without a ``protocol`` attribute fits every protocol.
    """
    if protocol_name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol_name!r}")
    if strategy_name not in STRATEGY_FACTORIES:
        from . import attacks  # noqa: F401  (adds the attack strategies)
    if strategy_name not in STRATEGY_FACTORIES:
        raise ValueError(f"unknown strategy {strategy_name!r}")
    factory = STRATEGY_FACTORIES[strategy_name]
    protocol = getattr(factory, "protocol", None)
    if protocol not in (None, protocol_name):
        raise ValueError(f"strategy {strategy_name!r} attacks {protocol}, not {protocol_name}")
    return factory


def run_single_trial(protocol_name, strategy_name, params, seed, index):
    """One trial on its own pair of randomness streams; order-independent."""
    factory = _strategy_class(protocol_name, strategy_name)
    world = Rng(seed, stream=2 * index)
    adversary = Rng(seed, stream=2 * index + 1)
    return run_upriv_game(PROTOCOLS[protocol_name], params, factory(adversary, params), world)


def _trial_range(args):
    protocol_name, strategy_name, params, seed, lo, hi = args
    return [
        run_single_trial(protocol_name, strategy_name, params, seed, i)
        for i in range(lo, hi)
    ]


def nominal_advantage(hash_bits: int) -> float:
    """The quoted closed form 1/2 - 2^-n (every collision counted as a loss)."""
    return 0.5 - 2.0 ** (-hash_bits)


def exact_advantage(hash_bits: int) -> float:
    """1/2 - 2^-(n+1): with a uniform bit, a collision misleads only when b = 1."""
    return 0.5 - 2.0 ** (-(hash_bits + 1))


@dataclass
class AdvantageReport:
    protocol: str
    strategy: str
    params: dict
    seed: int
    trials_requested: int
    trials_completed: int
    discarded: int
    discard_reasons: dict
    correct: int
    empirical_p: float
    empirical_adv: float
    ci95: float
    ci_method: str
    nominal_adv: float
    exact_adv: float
    nominal_within_ci: bool
    exact_within_ci: bool
    hash_name: str = HASH_NAME
    schema: int = SCHEMA_VERSION
    generated_at: str | None = None

    def to_dict(self) -> dict:
        doc = {"kind": "advantage-report", **asdict(self)}
        if self.generated_at is None:
            del doc["generated_at"]
        return doc

    def summary_line(self) -> str:
        return (
            f"{self.protocol}/{self.strategy}: trials={self.trials_completed}"
            f" (discarded {self.discarded})"
            f" empirical_adv={self.empirical_adv:.6f} +-{self.ci95:.6f} ({self.ci_method})"
            f" nominal_adv={self.nominal_adv:.6f}"
            f"[{'in' if self.nominal_within_ci else 'OUTSIDE'} CI]"
            f" exact_adv={self.exact_adv:.6f}"
            f"[{'in' if self.exact_within_ci else 'OUTSIDE'} CI]"
        )


def _confidence(p: float, n: int) -> tuple[float, str]:
    if n == 0:
        return 0.0, "normal"
    if p >= 1 - 10 / n or p <= 10 / n:
        # too close to the boundary for the normal approximation
        return 3.0 / n, "rule-of-three"
    return 1.96 * math.sqrt(p * (1 - p) / n), "normal"


def estimate_advantage(
    protocol_name: str,
    strategy_name: str,
    params,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    timestamp: bool = True,
) -> AdvantageReport:
    """Monte Carlo advantage over independent trials with fresh tags each."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _strategy_class(protocol_name, strategy_name)
    hash_bits = params.hash_bits
    if workers <= 1:
        outcomes = _trial_range((protocol_name, strategy_name, params, seed, 0, trials))
    else:
        step = max(1, trials // (workers * 8))
        ranges = [
            (protocol_name, strategy_name, params, seed, lo, min(lo + step, trials))
            for lo in range(0, trials, step)
        ]
        # imported here, not at module level: only a pool needs it, and it
        # is a sizeable import for every CLI run and benchmark set-up
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            outcomes = [item for chunk in pool.map(_trial_range, ranges) for item in chunk]

    correct = 0
    completed = 0
    discard_reasons: dict[str, int] = {}
    for outcome in outcomes:
        if outcome[0] == "ok":
            completed += 1
            correct += int(outcome[1] == outcome[2])
        else:
            reason = outcome[1]
            discard_reasons[reason] = discard_reasons.get(reason, 0) + 1

    empirical_p = correct / completed if completed else 0.0
    empirical_adv = abs(empirical_p - 0.5)
    ci95, ci_method = _confidence(empirical_p, completed)
    # coin-flip gets the tracing strategies' closed forms too: exact_adv 0.498047
    # at n = 8 where its true advantage is 0. test_report_digests.py pins those
    # bytes; fixed at the next report-schema change.
    nominal = nominal_advantage(hash_bits)
    exact = exact_advantage(hash_bits)
    return AdvantageReport(
        protocol=protocol_name,
        strategy=strategy_name,
        params=params.to_dict(),
        seed=seed,
        trials_requested=trials,
        trials_completed=completed,
        discarded=trials - completed,
        discard_reasons=discard_reasons,
        correct=correct,
        empirical_p=empirical_p,
        empirical_adv=empirical_adv,
        ci95=ci95,
        ci_method=ci_method,
        nominal_adv=nominal,
        exact_adv=exact,
        nominal_within_ci=abs(nominal - empirical_adv) <= ci95,
        exact_within_ci=abs(exact - empirical_adv) <= ci95,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if timestamp
        else None,
    )
