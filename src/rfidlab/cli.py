"""Experiment runner: honest drives, attacks, replay and snapshots.

Exit codes: 0 on success, 1 for configuration problems (bad flags, or a
transcript or snapshot that cannot be loaded), 2 when a run misses its
acceptance threshold (for CI pipelines). Seeds default to a
fixed constant so every run is reproducible unless told otherwise; the
RFIDLAB_SEED environment variable overrides the default and --seed
overrides both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

from . import attacks, fwcfp, game, lwjx, replay, snapshots
from .bits import BitString
from .rng import Rng
from .transcript import TranscriptFormatError, read_jsonl

DEFAULT_SEED = 7
SEED_ENV = "RFIDLAB_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); 2 means threshold here
        raise ConfigError(message)


@dataclass
class ExperimentConfig:
    protocol: str
    experiment: str
    trials: int
    seed: int
    id_bits: int | None
    key_bits: int | None
    nonce_bits: int | None
    hash_bits: int | None
    rand0_bits: int | None
    m_limit: int
    output: str | None
    format: str
    workers: int
    timestamp: bool
    drop_flow3_rate: float = 0.0
    attempts: int = 100
    mask: str | None = None
    guess_mode: str | None = None
    tolerance: float | None = None

    def validate(self):
        """Check the combination and build the protocol parameter object."""
        if self.protocol not in ("fwcfp", "lwjx"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.experiment in ("desync", "backtrace") and self.protocol != "fwcfp":
            raise ConfigError(f"{self.experiment} is defined for fwcfp only")
        if self.trials < 1:
            raise ConfigError("--trials must be >= 1")
        if not 0.0 <= self.drop_flow3_rate <= 1.0:
            raise ConfigError("--drop-flow3-rate must be in [0, 1]")
        if self.drop_flow3_rate and not (
            self.protocol == "lwjx" and self.experiment == "honest"
        ):
            raise ConfigError("--drop-flow3-rate applies to LWJX honest runs only")
        if self.guess_mode is not None and not (
            self.protocol == "lwjx" and self.experiment == "trace"
        ):
            raise ConfigError("--guess-mode applies to LWJX trace runs only")
        for name in ("id_bits", "key_bits", "nonce_bits", "hash_bits", "rand0_bits"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"--{name.replace('_', '-')} must be positive")
        if self.protocol == "fwcfp":
            return fwcfp.FwcfpParams(
                id_bits=self.id_bits or 96,
                key_bits=self.key_bits or 96,
                nonce_bits=self.nonce_bits or 96,
                hash_bits=self.hash_bits or 96,
                rand0_bits=self.rand0_bits or 32,
            )
        widths = {
            v for v in (self.id_bits, self.key_bits, self.nonce_bits) if v is not None
        }
        if len(widths) > 1:
            raise ConfigError(
                "LWJX key-update typing needs one shared value width:"
                " id, key and nonce widths must agree"
            )
        if self.rand0_bits is not None:
            raise ConfigError("--rand0-bits has no meaning for LWJX")
        bits = widths.pop() if widths else 96
        return lwjx.LwjxParams(
            bits=bits, hash_bits=self.hash_bits or 96, m_limit=self.m_limit
        )


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}")
    return DEFAULT_SEED


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def canonical_report_bytes(doc: dict) -> bytes:
    """Report bytes with the timestamp removed; what reproducibility compares."""
    trimmed = {k: v for k, v in doc.items() if k != "generated_at"}
    return canonical_json(trimmed).encode()


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            continue  # transcripts and other structures stay JSON-only
        else:
            flat[name] = value
    return flat


def _to_csv(doc: dict) -> str:
    flat = _flatten(doc)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    keys = sorted(flat)
    writer.writerow(keys)
    writer.writerow([flat[k] for k in keys])
    return buffer.getvalue()


def write_report(doc: dict, path: str, fmt: str):
    text = canonical_json(doc) if fmt == "json" else _to_csv(doc)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _stamp(doc: dict, include: bool) -> dict:
    if include and "generated_at" not in doc:
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if not include:
        doc.pop("generated_at", None)
    return doc


def _cmd_honest(config: ExperimentConfig):
    params = config.validate()
    rng = Rng(config.seed)
    if config.protocol == "fwcfp":
        db = fwcfp.FwcfpReaderDb.create(params, rng)
        tag = db.provision_tag(rng)
        both = consistent = 0
        for _ in range(config.trials):
            result = fwcfp.run_honest_session(tag, db, rng)
            both += int(result.both_accepted)
            consistent += int(fwcfp.alias_identity(db, tag) == tag.bookkeeping_idt)
        doc = {
            "schema": 1,
            "kind": "honest-run",
            "protocol": "fwcfp",
            "experiment": "honest",
            "params": params.to_dict(),
            "seed": config.seed,
            "sessions": config.trials,
            "both_accepted": both,
            "alias_consistent": consistent,
        }
        ok = both == config.trials and consistent == config.trials
        summary = (
            f"fwcfp honest: {both}/{config.trials} sessions accepted,"
            f" alias consistent {consistent}/{config.trials}"
        )
        return (EXIT_OK if ok else EXIT_THRESHOLD), doc, summary

    db = lwjx.LwjxReaderDb(params)
    tag = db.provision(rng)
    record = db.records[0]
    accepts = case_b = case_c = drops = sync_violations = 0
    max_m = 0
    for _ in range(config.trials):
        drop = rng.random() < config.drop_flow3_rate
        result = lwjx.run_honest_session(tag, db, rng, drop_flow3=drop)
        drops += int(drop)
        verdict = result.reader_verdict
        if verdict is not None and verdict.ok:
            accepts += 1
            if verdict.reason == "new-branch":
                case_b += 1
            else:
                case_c += 1
        max_m = max(max_m, record.m)
        sync_violations += int(not lwjx.is_synchronized(db, tag))
    doc = {
        "schema": 1,
        "kind": "honest-run",
        "protocol": "lwjx",
        "experiment": "honest",
        "params": params.to_dict(),
        "seed": config.seed,
        "sessions": config.trials,
        "drop_flow3_rate": config.drop_flow3_rate,
        "reader_accepts": accepts,
        "case_b": case_b,
        "case_c": case_c,
        "flow3_drops": drops,
        "max_m": max_m,
        "sync_violations": sync_violations,
    }
    ok = accepts == config.trials and sync_violations == 0 and max_m <= params.m_limit
    summary = (
        f"lwjx honest: {accepts}/{config.trials} authenticated"
        f" (new {case_b}, old {case_c}, drops {drops}), max M {max_m},"
        f" sync violations {sync_violations}"
    )
    return (EXIT_OK if ok else EXIT_THRESHOLD), doc, summary


def _cmd_desync(config: ExperimentConfig):
    params = config.validate()
    rng = Rng(config.seed)
    db = fwcfp.FwcfpReaderDb.create(params, rng)
    tag = db.provision_tag(rng)
    if config.mask is not None:
        try:
            mask = BitString.parse(config.mask)
        except ValueError as exc:
            raise ConfigError(f"--mask: {exc}")
    else:
        mask = rng.nonzero_bits(params.alias_bits)
    try:
        outcome = attacks.fwcfp_desync_attack(tag, db, mask, config.attempts, rng)
    except ValueError as exc:
        raise ConfigError(str(exc))
    doc = outcome.to_dict()
    doc.update(
        {
            "protocol": "fwcfp",
            "experiment": "desync",
            "params": params.to_dict(),
            "seed": config.seed,
        }
    )
    ok = (
        outcome.tamper_accepted
        and outcome.alias_shift_matches
        and outcome.rejects == outcome.post_attack_attempts
    )
    summary = (
        f"fwcfp desync: tampered session"
        f" {'accepted' if outcome.tamper_accepted else 'REJECTED'},"
        f" alias shift {'exact' if outcome.alias_shift_matches else 'WRONG'},"
        f" post-attack rejects {outcome.rejects}/{outcome.post_attack_attempts}"
    )
    return (EXIT_OK if ok else EXIT_THRESHOLD), doc, summary


def _trace_strategy_name(config: ExperimentConfig) -> str:
    if config.experiment == "backtrace":
        return "fwcfp-backtrace"
    if config.protocol == "fwcfp":
        return "fwcfp-trace"
    mode = config.guess_mode or "id-hash"
    if mode not in ("id-hash", "key-hash"):
        raise ConfigError(f"--guess-mode must be id-hash or key-hash, got {mode!r}")
    return "lwjx-trace-id" if mode == "id-hash" else "lwjx-trace-key"


def _cmd_trace(config: ExperimentConfig):
    params = config.validate()
    strategy = _trace_strategy_name(config)
    report = game.estimate_advantage(
        config.protocol,
        strategy,
        params,
        config.trials,
        config.seed,
        workers=config.workers,
        timestamp=config.timestamp,
    )
    doc = report.to_dict()
    doc["experiment"] = config.experiment
    ok = True
    if config.tolerance is not None:
        ok = abs(report.empirical_adv - report.exact_adv) <= config.tolerance
    return (EXIT_OK if ok else EXIT_THRESHOLD), doc, report.summary_line()


def _cmd_replay(args):
    report = replay.verify_all(read_jsonl(args.input))
    return (EXIT_OK if report.ok else EXIT_THRESHOLD), None, report.describe()


def _cmd_snapshot(args):
    seed = _resolve_seed(args)
    if args.input:
        try:
            master = bytes.fromhex(args.master_key) if args.master_key else None
        except ValueError:
            raise ConfigError("--master-key must be hex") from None
        db = snapshots.load_db(args.input, master_key=master)
        if args.output:
            snapshots.snapshot_db(
                db, args.output, include_master_key=args.include_master_key
            )
        regenerated = (
            snapshots.fwcfp_db_to_doc(db, include_master_key="master_key" in _read_json(args.input))
            if isinstance(db, fwcfp.FwcfpReaderDb)
            else snapshots.lwjx_db_to_doc(db)
        )
        ok = regenerated == _read_json(args.input)
        return (
            (EXIT_OK if ok else EXIT_THRESHOLD),
            None,
            "snapshot round-trip " + ("ok" if ok else "MISMATCH"),
        )
    if not args.output:
        raise ConfigError("snapshot needs --output (or --input to verify)")
    rng = Rng(seed)
    if args.protocol == "fwcfp":
        params = fwcfp.FwcfpParams(
            id_bits=args.id_bits or 96,
            key_bits=args.key_bits or 96,
            nonce_bits=args.nonce_bits or 96,
            hash_bits=args.hash_bits or 96,
            rand0_bits=args.rand0_bits or 32,
        )
        db = fwcfp.FwcfpReaderDb.create(params, rng)
        for _ in range(args.tags):
            db.provision_tag(rng)
    elif args.protocol == "lwjx":
        params = lwjx.LwjxParams(
            bits=args.id_bits or 96,
            hash_bits=args.hash_bits or 96,
            m_limit=args.m_limit,
        )
        db = lwjx.LwjxReaderDb(params)
        for _ in range(args.tags):
            db.provision(rng)
    else:
        raise ConfigError(f"unknown protocol {args.protocol!r}")
    snapshots.snapshot_db(db, args.output, include_master_key=args.include_master_key)
    return EXIT_OK, None, f"wrote {args.protocol} snapshot with {args.tags} tags to {args.output}"


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _add_common(parser):
    parser.add_argument("--protocol", choices=("fwcfp", "lwjx"), default="fwcfp")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--id-bits", type=int, default=None, dest="id_bits")
    parser.add_argument("--key-bits", type=int, default=None, dest="key_bits")
    parser.add_argument("--nonce-bits", type=int, default=None, dest="nonce_bits")
    parser.add_argument("--hash-bits", type=int, default=None, dest="hash_bits")
    parser.add_argument("--rand0-bits", type=int, default=None, dest="rand0_bits")
    parser.add_argument("--m-limit", type=int, default=5, dest="m_limit")
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--no-timestamp",
        action="store_false",
        dest="timestamp",
        help="omit generated_at so identical runs are byte-identical",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="rfidlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    honest = commands.add_parser("honest", help="drive honest sessions")
    _add_common(honest)
    honest.add_argument("--drop-flow3-rate", type=float, default=0.0, dest="drop_flow3_rate")

    desync = commands.add_parser("desync", help="desynchronize an FWCFP tag")
    _add_common(desync)
    desync.add_argument("--attempts", type=int, default=100)
    desync.add_argument("--mask", default=None, help='alias-width mask as "w:hex"')

    trace = commands.add_parser("trace", help="untraceability advantage")
    _add_common(trace)
    trace.add_argument("--guess-mode", choices=("id-hash", "key-hash"), default=None, dest="guess_mode")
    trace.add_argument("--tolerance", type=float, default=None)

    backtrace = commands.add_parser("backtrace", help="backward-untraceability advantage")
    _add_common(backtrace)
    backtrace.add_argument("--tolerance", type=float, default=None)

    replay_cmd = commands.add_parser("replay", help="verify a transcript file")
    replay_cmd.add_argument("--input", required=True)

    snapshot = commands.add_parser("snapshot", help="write or verify a reader database snapshot")
    _add_common(snapshot)
    snapshot.add_argument("--tags", type=int, default=3)
    snapshot.add_argument("--include-master-key", action="store_true", dest="include_master_key")
    snapshot.add_argument("--input", default=None)
    snapshot.add_argument("--master-key", default=None, dest="master_key")
    return parser


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=args.protocol,
        experiment=args.command,
        trials=args.trials,
        seed=_resolve_seed(args),
        id_bits=args.id_bits,
        key_bits=args.key_bits,
        nonce_bits=args.nonce_bits,
        hash_bits=args.hash_bits,
        rand0_bits=args.rand0_bits,
        m_limit=args.m_limit,
        output=args.output,
        format=args.format,
        workers=args.workers,
        timestamp=args.timestamp,
        drop_flow3_rate=getattr(args, "drop_flow3_rate", 0.0),
        attempts=getattr(args, "attempts", 100),
        mask=getattr(args, "mask", None),
        guess_mode=getattr(args, "guess_mode", None),
        tolerance=getattr(args, "tolerance", None),
    )


def run_experiment(argv) -> int:
    """Parse, run, write any report, print the one-line summary."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "replay":
        code, doc, summary = _cmd_replay(args)
    elif args.command == "snapshot":
        code, doc, summary = _cmd_snapshot(args)
    else:
        config = _config_from(args)
        if args.command == "honest":
            code, doc, summary = _cmd_honest(config)
        elif args.command == "desync":
            code, doc, summary = _cmd_desync(config)
        else:
            code, doc, summary = _cmd_trace(config)
        if doc is not None:
            _stamp(doc, config.timestamp)
            if config.output:
                write_report(doc, config.output, config.format)
    print(summary)
    return code


def main(argv=None) -> int:
    try:
        return run_experiment(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        OSError,
        snapshots.SnapshotError,
        TranscriptFormatError,
        replay.TranscriptParamsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
