"""Concrete adversaries: desynchronization plus three tracing strategies.

The tracing strategies drive the untraceability game through the query
surface only; nothing here reads tag or reader internals except through
Corrupt. The desynchronization procedure is not a game: it is an
availability experiment in which a man-in-the-middle XORs one mask into
both halves of the reader's final message, which the tag cannot detect.
"""

from __future__ import annotations

from . import fwcfp, game, lwjx
from .bits import BitString
from .crypto import truncated_hash
from .records import Record
from .rng import Rng
from .transcript import Transcript, transcript_to_lines


class DesyncOutcome(Record):
    """What one desynchronization run did and what it cost the tag."""

    mask: BitString
    alias_before: BitString
    issued_alias: BitString
    alias_after: BitString
    tamper_accepted: bool
    tampered_session: Transcript
    post_attack_attempts: int
    rejects: int
    reject_reasons: dict

    @property
    def alias_shift_matches(self) -> bool:
        """Stored alias == the alias the reader issued XOR the mask."""
        return self.alias_after == self.issued_alias ^ self.mask

    def to_dict(self) -> dict:
        return {
            "kind": "desync-outcome",
            "mask": self.mask.render(),
            "alias_before": self.alias_before.render(),
            "issued_alias": self.issued_alias.render(),
            "alias_after": self.alias_after.render(),
            "tamper_accepted": self.tamper_accepted,
            "alias_shift_matches": self.alias_shift_matches,
            "post_attack_attempts": self.post_attack_attempts,
            "rejects": self.rejects,
            "reject_reasons": self.reject_reasons,
            "tampered_session": transcript_to_lines(self.tampered_session),
        }


def fwcfp_desync_attack(
    tag: fwcfp.FwcfpTag,
    db: fwcfp.FwcfpReaderDb,
    mask: BitString,
    attempts: int,
    rng: Rng,
) -> DesyncOutcome:
    """Tamper one session's (A, B) with the mask, then count how the tag fares.

    Both hash checks still pass and both unmaskings agree, so the tag
    accepts and stores the issued alias XOR the mask; from then on the
    reader decrypts its alias to an unknown identifier.
    """
    p = db.params
    if mask.width != p.alias_bits:
        raise ValueError(f"mask must be {p.alias_bits} bits, got {mask.width}")
    if mask.is_zero:
        raise ValueError("an all-zero mask degenerates to an honest session")
    alias_before = tag.idta

    def tamper(flow, message):
        if flow == "flow3":
            return message._replace(a=message.a ^ mask, b=message.b ^ mask)
        return message

    result = fwcfp.run_honest_session(tag, db, rng, interpose=tamper)
    issued = result.reader_verdict.issued
    rejects = 0
    reject_reasons: dict[str, int] = {}
    for _ in range(attempts):
        post = fwcfp.run_honest_session(tag, db, rng)
        verdict = post.reader_verdict
        if verdict is not None and not verdict.ok:
            rejects += 1
            reject_reasons[verdict.reason] = reject_reasons.get(verdict.reason, 0) + 1
    return DesyncOutcome(
        mask=mask,
        alias_before=alias_before,
        issued_alias=issued,
        alias_after=tag.idta,
        tamper_accepted=result.tag_verdict is not None and result.tag_verdict.ok,
        tampered_session=result.transcript,
        post_attack_attempts=attempts,
        rejects=rejects,
        reject_reasons=reject_reasons,
    )


class FwcfpTraceStrategy(game.AdversaryStrategy):
    """Distinguishes tags because flows 2 and 3 key the same hash structure.

    Learning records (rand2, H(K0 || rand2)) from one eavesdropped session;
    the challenge replays rand2 as the opening nonce, so the hidden tag
    answers with H(Kb || rand2) and equality identifies tag 0.
    """

    protocol = "fwcfp"

    def learning(self, driver):
        transcript = driver.execute(0)
        flow2 = transcript.delivered("flow2")
        flow3 = transcript.delivered("flow3")
        if flow2 is None or flow3 is None:
            raise game.TrialAbort("learning session incomplete")
        self._nonce = flow2["rand2"]
        self._expected = flow3["h2"]

    def challenge(self, driver, handle):
        reply = driver.send_to_tag(handle, fwcfp.Flow1(self._nonce))
        if not isinstance(reply, fwcfp.Flow2):
            raise game.TrialAbort("challenge tag gave no usable response")
        self._equal = reply.h1 == self._expected

    def guess(self) -> int:
        return 0 if self._equal else 1


class FwcfpBackwardTraceStrategy(game.AdversaryStrategy):
    """Links a past session to a later key read-out.

    The challenge session runs first; only then is tag 0 corrupted. Its
    key never changes, so H(K0 || rand1) recomputed from the challenge
    transcript's opening nonce must match its response whenever the
    hidden tag was tag 0.
    """

    protocol = "fwcfp"
    corrupt_policy = game.CORRUPT_AFTER_ARCHIVE

    def challenge(self, driver, handle):
        transcript = driver.execute(handle)
        flow1 = transcript.delivered("flow1")
        flow2 = transcript.delivered("flow2")
        if flow1 is None or flow2 is None:
            raise game.TrialAbort("missing archived challenge session")
        secrets = driver.corrupt(0)  # read-out; leaves the tag as it was
        p = self.params
        recomputed = truncated_hash(
            p.hash,
            p.key_bits + p.nonce_bits,
            (secrets["k"].value << p.nonce_bits) | flow1["rand1"].value,
        )
        self._equal = recomputed == flow2["h1"].value

    def guess(self) -> int:
        return 0 if self._equal else 1


class LwjxTraceStrategy(game.AdversaryStrategy):
    """Opens and abandons sessions so the tag's hashes stay put.

    A session aborted before the reader's reply never updates the tag, so
    H(ID0) and H(K0 || Rr1) from the learning probe reappear verbatim when
    the hidden tag is tag 0. Both equalities are recorded per trial; this
    class guesses by the identifier hash.
    """

    protocol = "lwjx"

    def learning(self, driver):
        self._probe = self.rng.bits(self.params.bits)
        reply = driver.send_to_tag(0, lwjx.Flow1(self._probe))
        if not isinstance(reply, lwjx.Flow2):
            raise game.TrialAbort("learning probe got no usable response")
        self._hid = reply.hid
        self._hk = reply.hk
        # walking away here is the abort: no reply ever reaches the tag

    def challenge(self, driver, handle):
        reply = driver.send_to_tag(handle, lwjx.Flow1(self._probe))
        if not isinstance(reply, lwjx.Flow2):
            raise game.TrialAbort("challenge probe got no usable response")
        self.id_equal = reply.hid == self._hid
        self.key_equal = reply.hk == self._hk

    def guess(self) -> int:
        return 0 if self.id_equal else 1


class LwjxKeyTraceStrategy(LwjxTraceStrategy):
    """The same probes, guessing by the keyed nonce hash H(K || Rr1)."""

    def guess(self) -> int:
        return 0 if self.key_equal else 1


game.STRATEGY_FACTORIES.update(
    {
        "fwcfp-trace": FwcfpTraceStrategy,
        "fwcfp-backtrace": FwcfpBackwardTraceStrategy,
        "lwjx-trace-id": LwjxTraceStrategy,
        "lwjx-trace-key": LwjxKeyTraceStrategy,
    }
)
