"""rfidlab: two RFID mutual-authentication protocols, the untraceability
game they are judged in, and the attacks that break them."""

from .bits import BitString, WidthError
from .crypto import (
    FEISTEL_ROUNDS,
    G_TAG,
    H_TAG,
    HASH_NAME,
    HashParams,
    PermKey,
    expand_mask,
    g_params,
    h_params,
    invert,
    permute,
    truncated_hash,
)
from .game import (
    AdvantageReport,
    AdversaryStrategy,
    ChallengeHandle,
    CoinFlipStrategy,
    GameDriver,
    PhaseViolation,
    UprivGame,
    estimate_advantage,
    exact_advantage,
    nominal_advantage,
    run_upriv_game,
)
from .rng import Rng
from .session import ProtocolError, RejectMessage, SessionResult, SessionVerdict
from .transcript import Transcript, TranscriptEntry, read_jsonl, write_jsonl

__version__ = "0.1.0"

__all__ = [
    "AdvantageReport",
    "AdversaryStrategy",
    "BitString",
    "ChallengeHandle",
    "CoinFlipStrategy",
    "FEISTEL_ROUNDS",
    "G_TAG",
    "GameDriver",
    "H_TAG",
    "HASH_NAME",
    "HashParams",
    "PermKey",
    "PhaseViolation",
    "ProtocolError",
    "RejectMessage",
    "Rng",
    "SessionResult",
    "SessionVerdict",
    "Transcript",
    "TranscriptEntry",
    "UprivGame",
    "WidthError",
    "estimate_advantage",
    "exact_advantage",
    "expand_mask",
    "g_params",
    "h_params",
    "invert",
    "nominal_advantage",
    "permute",
    "read_jsonl",
    "run_upriv_game",
    "truncated_hash",
    "write_jsonl",
    "__version__",
]
