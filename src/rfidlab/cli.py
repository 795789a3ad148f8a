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


def _at_least(low: int, kind=int):
    """An argparse type: a number of the given kind no smaller than ``low``."""

    def number(text: str):
        value = kind(text)
        if not value >= low:  # NaN included
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    number.__name__ = kind.__name__  # argparse's "invalid int value" message
    return number


WIDTH_FLAGS = ("id_bits", "key_bits", "nonce_bits", "hash_bits", "rand0_bits")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_params(args):
    """The protocol params the parsed flags ask for; defaults fill the rest."""
    given = {
        name: getattr(args, name)
        for name in WIDTH_FLAGS + ("m_limit",)
        if getattr(args, name, None) is not None
    }
    cls = game.PROTOCOLS[args.protocol].params
    if args.protocol == "fwcfp":
        if "m_limit" in given:
            raise ConfigError("--m-limit applies to LWJX only")
    else:
        if "rand0_bits" in given:
            raise ConfigError("--rand0-bits has no meaning for LWJX")
        names = ("id_bits", "key_bits", "nonce_bits")
        shared = {given.pop(name) for name in names if name in given}
        if len(shared) > 1:
            raise ConfigError(
                "LWJX key-update typing needs one shared value width:"
                " id, key and nonce widths must agree"
            )
        if shared:
            given["bits"] = shared.pop()
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_seed(args) -> int:
    """The seed from --seed, else the environment, else the default.

    Rng keeps 64 bits of a seed, so a wider one would silently alias a
    narrower one; it is rejected instead.
    """
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get(SEED_ENV)
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env, 0), SEED_ENV
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{source} must be in 0 ... 2**64 - 1, got {seed}")
    return seed


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


def _cmd_honest(args, params, seed):
    trials = args.trials
    drop_rate = args.drop_flow3_rate
    if drop_rate is not None and args.protocol != "lwjx":
        raise ConfigError("--drop-flow3-rate applies to LWJX honest runs only")
    drop_rate = drop_rate or 0.0  # None, and -0.0, which the report would write as -0.0
    if not 0.0 <= drop_rate <= 1.0:
        raise ConfigError("--drop-flow3-rate must be in [0, 1]")
    rng = Rng(seed)
    protocol = game.PROTOCOLS[args.protocol]
    db = protocol.new_reader(params, rng)
    tag = protocol.provision(db, rng)
    if args.protocol == "fwcfp":
        both = consistent = 0
        for _ in range(trials):
            result = fwcfp.run_honest_session(tag, db, rng)
            both += int(result.both_accepted)
            consistent += int(fwcfp.alias_identity(db, tag) == tag.bookkeeping_idt)
        body = {
            "kind": "honest-run",
            "sessions": trials,
            "both_accepted": both,
            "alias_consistent": consistent,
        }
        ok = both == trials and consistent == trials
        summary = (
            f"fwcfp honest: {both}/{trials} sessions accepted,"
            f" alias consistent {consistent}/{trials}"
        )
        return ok, body, summary

    record = db.records[0]
    accepts = case_b = case_c = drops = sync_violations = 0
    max_m = 0
    for _ in range(trials):
        drop = rng.random() < drop_rate
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
    body = {
        "kind": "honest-run",
        "sessions": trials,
        "drop_flow3_rate": drop_rate,
        "reader_accepts": accepts,
        "case_b": case_b,
        "case_c": case_c,
        "flow3_drops": drops,
        "max_m": max_m,
        "sync_violations": sync_violations,
    }
    ok = accepts == trials and sync_violations == 0 and max_m <= params.m_limit
    summary = (
        f"lwjx honest: {accepts}/{trials} authenticated"
        f" (new {case_b}, old {case_c}, drops {drops}), max M {max_m},"
        f" sync violations {sync_violations}"
    )
    return ok, body, summary


def _cmd_desync(args, params, seed):
    rng = Rng(seed)
    db = fwcfp.FwcfpReaderDb.create(params, rng)
    tag = db.provision_tag(rng)
    if args.mask is not None:
        try:
            mask = BitString.parse(args.mask)
        except ValueError as exc:
            raise ConfigError(f"--mask: {exc}")
    else:
        mask = rng.nonzero_bits(params.alias_bits)
    try:
        outcome = attacks.fwcfp_desync_attack(tag, db, mask, args.attempts, rng)
    except ValueError as exc:
        raise ConfigError(str(exc))
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
    return ok, outcome.to_dict(), summary


def _trace_strategy_name(args) -> str:
    if args.command == "backtrace":
        return "fwcfp-backtrace"
    if args.protocol == "fwcfp":
        if args.guess_mode is not None:
            raise ConfigError("--guess-mode applies to LWJX trace runs only")
        return "fwcfp-trace"
    return "lwjx-trace-key" if args.guess_mode == "key-hash" else "lwjx-trace-id"


def _cmd_trace(args, params, seed):
    report = game.estimate_advantage(
        args.protocol,
        _trace_strategy_name(args),
        params,
        args.trials,
        seed,
        workers=args.workers,
        timestamp=False,
    )
    ok = args.tolerance is None or abs(report.empirical_adv - report.exact_adv) <= args.tolerance
    return ok, report.to_dict(), report.summary_line()


def _cmd_replay(args):
    report = replay.verify_all(read_jsonl(args.input))
    return report.ok, report.describe()


# flags that shape a new snapshot; a snapshot read with --input has its own
SNAPSHOT_WRITE_FLAGS = ("protocol", "seed", "tags", "m_limit") + WIDTH_FLAGS


def _cmd_snapshot(args):
    if args.input:
        for name in SNAPSHOT_WRITE_FLAGS:
            if getattr(args, name) is not None:
                raise ConfigError(f"{_flag(name)} applies to writing a snapshot, not to --input")
        if args.include_master_key and not args.output:
            raise ConfigError("--include-master-key needs --output")
        try:
            master = bytes.fromhex(args.master_key) if args.master_key else None
        except ValueError:
            raise ConfigError("--master-key must be hex") from None
        original = snapshots.read_doc(args.input)
        db = snapshots.db_from_doc(original, master_key=master)
        if args.output:
            snapshots.snapshot_db(
                db, args.output, include_master_key=args.include_master_key
            )
        regenerated = snapshots.db_to_doc(db, include_master_key="master_key" in original)
        ok = regenerated == original
        return ok, "snapshot round-trip " + ("ok" if ok else "MISMATCH")
    if not args.output:
        raise ConfigError("snapshot needs --output (or --input to verify)")
    if args.master_key is not None:
        raise ConfigError("--master-key applies to --input only")
    args.protocol = args.protocol or "fwcfp"
    args.tags = 3 if args.tags is None else args.tags
    params = build_params(args)
    rng = Rng(_resolve_seed(args))
    protocol = game.PROTOCOLS[args.protocol]
    db = protocol.new_reader(params, rng)
    try:
        for _ in range(args.tags):
            protocol.provision(db, rng)
    except ValueError as exc:  # FWCFP IDTs are drawn at random and must differ
        raise ConfigError(f"{exc} among {args.tags} tags; use a wider --id-bits") from None
    snapshots.snapshot_db(db, args.output, include_master_key=args.include_master_key)
    return True, f"wrote {args.protocol} snapshot with {args.tags} tags to {args.output}"


def _add_command(commands, name, run, help, protocols=tuple(game.PROTOCOLS)):
    """A subcommand with the protocol, seed and width flags every run takes."""
    parser = commands.add_parser(name, help=help)
    parser.set_defaults(run=run)
    parser.add_argument("--protocol", choices=protocols, default="fwcfp")
    parser.add_argument("--seed", type=int, default=None)
    for width in WIDTH_FLAGS:
        parser.add_argument(_flag(width), type=int, default=None)
    if "lwjx" in protocols:
        parser.add_argument("--m-limit", type=int, default=None)
    return parser


def _add_report_flags(parser, *, trials: bool, workers: bool = False):
    """Flags of the commands that write a report, some of which run trials."""
    parser.set_defaults(report=True)
    if trials:
        parser.add_argument("--trials", type=_at_least(1), default=1000)
    if workers:
        parser.add_argument("--workers", type=_at_least(1), default=1)
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--no-timestamp",
        action="store_false",
        dest="timestamp",
        help="omit generated_at so identical runs are byte-identical",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="rfidlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    honest = _add_command(commands, "honest", _cmd_honest, "drive honest sessions")
    honest.add_argument("--drop-flow3-rate", type=float, default=None)
    _add_report_flags(honest, trials=True)

    desync = _add_command(
        commands, "desync", _cmd_desync, "desynchronize an FWCFP tag", ("fwcfp",)
    )
    desync.add_argument("--attempts", type=_at_least(0), default=100)
    desync.add_argument("--mask", default=None, help='alias-width mask as "w:hex"')
    _add_report_flags(desync, trials=False)

    trace = _add_command(commands, "trace", _cmd_trace, "untraceability advantage")
    trace.add_argument("--guess-mode", choices=("id-hash", "key-hash"), default=None)
    trace.add_argument("--tolerance", type=_at_least(0, float), default=None)
    _add_report_flags(trace, trials=True, workers=True)

    backtrace = _add_command(
        commands, "backtrace", _cmd_trace, "backward-untraceability advantage", ("fwcfp",)
    )
    backtrace.add_argument("--tolerance", type=_at_least(0, float), default=None)
    _add_report_flags(backtrace, trials=True, workers=True)

    replay_cmd = commands.add_parser("replay", help="verify a transcript file")
    replay_cmd.set_defaults(run=_cmd_replay)
    replay_cmd.add_argument("--input", required=True)

    snapshot = _add_command(
        commands, "snapshot", _cmd_snapshot, "write or verify a reader database snapshot"
    )
    # None marks a flag as not given, which --input checks (the defaults
    # when writing are fwcfp and 3 tags)
    snapshot.set_defaults(protocol=None)
    snapshot.add_argument("--tags", type=_at_least(0), default=None)
    snapshot.add_argument("--include-master-key", action="store_true")
    snapshot.add_argument("--input", default=None)
    snapshot.add_argument("--master-key", default=None)
    snapshot.add_argument("--output", default=None)
    return parser


def run_experiment(argv) -> int:
    """Parse, run, write any report, print the one-line summary; the exit code.

    A report command gets the params and seed its flags ask for and returns
    ``(ok, body, summary)``; its report is the body under the header every
    report shares (schema, protocol, experiment, params, seed, and
    generated_at unless --no-timestamp). Other commands return ``(ok, summary)``.
    """
    args = build_parser().parse_args(argv)
    if getattr(args, "report", False):
        params = build_params(args)
        seed = _resolve_seed(args)
        ok, body, summary = args.run(args, params, seed)
        doc = {
            "schema": game.SCHEMA_VERSION,
            "protocol": args.protocol,
            "experiment": args.command,
            "params": params.to_dict(),
            "seed": seed,
            **body,
        }
        if args.timestamp:
            doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if args.output:
            text = canonical_json(doc) if args.format == "json" else _to_csv(doc)
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    else:
        ok, summary = args.run(args)
    print(summary)
    return EXIT_OK if ok else EXIT_THRESHOLD


def main(argv=None) -> int:
    try:
        return run_experiment(sys.argv[1:] if argv is None else argv)
    except (
        ConfigError,
        OSError,
        snapshots.SnapshotError,
        TranscriptFormatError,
        replay.TranscriptParamsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
