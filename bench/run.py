#!/usr/bin/env python3
"""rfidlab benchmark: three closed-loop workloads, correctness gates, traced layers.

    python3 bench/run.py --workload trace-mc --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client drives each workload in a closed loop with ``workers=1``. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it carries the
environment and the details behind the metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from setup_probe import MODULES
from tracer import Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Speed normalisation. On a shared virtual machine the CPU speed swings by
# 2x over tens of seconds as other tenants come and go, so raw wall-clock
# rates spread by 15-25% between runs. Every timed chunk (15-300 ms) is
# therefore bracketed by a fixed reference loop, and its time is scaled by
# REF_NOMINAL_S over the mean of the two reference times: the chunk's time
# at the reference speed. REF_NOMINAL_S is the time of REF_ITERATIONS
# reference iterations on an uncontended core of the development machine
# (CPython 3.11), so there the normalised and wall-clock figures agree;
# elsewhere they differ by a constant factor, which cancels when two
# commits are compared.
REF_NOMINAL_S = 0.0022
REF_ITERATIONS = 2000
SETUP_REPEATS = 9

# trace-mc: (protocol, strategy, trials per report) at hash_bits=8. 1000
# trials keep |empirical - exact| far inside the 0.01 gate at n=8.
TRACE_MC_MIX = (
    ("fwcfp", "fwcfp-trace", 1000),
    ("fwcfp", "fwcfp-backtrace", 1000),
    ("lwjx", "lwjx-trace-id", 3000),
)
TRACE_MC_HASH_BITS = 8
TRACE_MC_TOLERANCE = 0.01

# lwjx-fleet: 1024 records keep run-to-run spread low (4096 varied +-15%);
# flow3 loss 0.1, and no tag loses more than FLEET_MAX_DROP_STREAK flows in
# a row, so the reader's resync counter never passes m_limit (warn-limit).
FLEET_TAGS = 1024
FLEET_SESSIONS = 5000
FLEET_CHUNK = 100
FLEET_LOSS = 0.1
FLEET_MAX_DROP_STREAK = 5

# record-replay: honest FWCFP and LWJX sessions in turn, then write + replay.
RR_SESSIONS = 2000
RR_CHUNK = 100
RR_FIELDS = {"fwcfp": 6, "lwjx": 5}  # derived fields per fully disclosed session


class _RefItem:
    __slots__ = ("index", "digest")

    def __init__(self, index, digest):
        self.index = index
        self.digest = digest


def reference_work(iterations: int) -> int:
    """Fixed interpreter work (objects, dicts, ints, SHA-256), independent of rfidlab."""
    sha256 = hashlib.sha256
    acc = 0
    items = []
    for i in range(iterations):
        item = _RefItem(i, sha256(i.to_bytes(8, "big")).digest())
        acc ^= int.from_bytes(item.digest[:8], "big")
        items.append({"index": item.index, "digest": item.digest})
    return acc


def reference_seconds(iterations: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work(iterations)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Runs the reference loop between timed chunks.

    Longer chunks get a longer reference (``scale`` times REF_ITERATIONS),
    so that the speed it samples matches the chunk's more closely.
    """

    def __init__(self, scale: int = 1):
        self.iterations = REF_ITERATIONS * scale
        self.nominal = REF_NOMINAL_S * scale
        self.reset()

    def reset(self):
        self.last = reference_seconds(self.iterations)

    def factor(self) -> float:
        """Normalisation factor for the chunk that ended just now."""
        before, self.last = self.last, reference_seconds(self.iterations)
        return self.nominal * 2 / (before + self.last)


class GateFailure(Exception):
    """An output of the program is wrong; the run fails."""


def gate(condition: bool, message: str):
    if not condition:
        raise GateFailure(message)


def import_rfidlab() -> SimpleNamespace:
    """Import rfidlab afresh from src/ (earlier imports are discarded)."""
    for name in [n for n in sys.modules if n == "rfidlab" or n.startswith("rfidlab.")]:
        del sys.modules[name]
    return rfidlab_namespace()


def rfidlab_namespace() -> SimpleNamespace:
    """The rfidlab modules, imported from src/ unless already loaded."""
    pkg = importlib.import_module("rfidlab")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rfidlab imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        pkg=pkg, **{name: importlib.import_module(f"rfidlab.{name}") for name in MODULES}
    )


@dataclass
class Chunk:
    """A timed slice of a round; chunk i of every round does identical work."""

    ops: int
    seconds: float  # wall clock
    factor: float  # speed normalisation, see SpeedGauge
    samples_us: list  # wall-clock time of each op in the chunk
    phase: str = "drive"

    @property
    def norm_seconds(self) -> float:
        return self.seconds * self.factor


@dataclass
class Round:
    chunks: list
    failed: int = 0
    fingerprint: dict | None = None
    sessions_open: int = 0
    transcript_bytes: int = 0
    fields_checked: int = 0

    @property
    def ops(self) -> int:
        return sum(c.ops for c in self.chunks)

    @property
    def norm_seconds(self) -> float:
        return sum(c.norm_seconds for c in self.chunks)

    @property
    def speed_factor(self) -> float:
        return self.norm_seconds / sum(c.seconds for c in self.chunks)


# -- workloads ---------------------------------------------------------------
#
# Each workload builds its inputs from the seed once (``build``), makes a
# fresh program state for a round (``fresh``) and drives one round
# (``drive``). Every round of a run repeats the same inputs, so rounds are
# comparable, counts repeat exactly, and reader state (including the
# never-closed session tables) stays bounded by the round size rather than
# by how fast the program runs.


class TraceMc:
    name = "trace-mc"
    op_spans = ("game.trial",)
    ref_scale = 3  # its chunks are whole estimate_advantage calls, 100-300 ms

    def __init__(self, mix=TRACE_MC_MIX):
        self.mix = mix

    def build(self, rf, seed):
        gen = random.Random(f"{self.name}:{seed}")
        params = {
            "fwcfp": rf.fwcfp.FwcfpParams(hash_bits=TRACE_MC_HASH_BITS),
            "lwjx": rf.lwjx.LwjxParams(hash_bits=TRACE_MC_HASH_BITS),
        }
        return [
            (proto, strategy, params[proto], trials, gen.getrandbits(63))
            for proto, strategy, trials in self.mix
        ]

    def fresh(self, rf, inputs):
        return inputs

    def drive(self, rf, state, gauge) -> Round:
        chunks, digests = [], {}
        failed = 0
        for proto, strategy, params, trials, seed in state:
            t0 = perf_counter()
            report = rf.game.estimate_advantage(
                proto, strategy, params, trials, seed, workers=1, timestamp=False
            )
            elapsed = perf_counter() - t0
            chunks.append(Chunk(trials, elapsed, gauge.factor(), [], strategy))
            failed += report.discarded
            gate(report.discarded == 0, f"{strategy}: {report.discard_reasons}")
            gap = abs(report.empirical_adv - report.exact_adv)
            gate(
                gap <= TRACE_MC_TOLERANCE,
                f"{strategy}: |empirical - exact| = {gap:.6f} > {TRACE_MC_TOLERANCE}",
            )
            report_bytes = rf.cli.canonical_report_bytes(report.to_dict())
            digests[strategy] = hashlib.sha256(report_bytes).hexdigest()
        # game readers live inside trials, and LWJX trials never open a session
        return Round(chunks, failed=failed, fingerprint=digests)


class LwjxFleet:
    name = "lwjx-fleet"
    op_spans = ("lwjx.session",)
    ref_scale = 1

    def __init__(self, tags=FLEET_TAGS, sessions=FLEET_SESSIONS):
        self.tags = tags
        self.sessions = sessions

    def build(self, rf, seed):
        gen = random.Random(f"{self.name}:{seed}")
        proto_seed = gen.getrandbits(63)
        streak = [0] * self.tags
        schedule = []
        for _ in range(self.sessions):
            tag = gen.randrange(self.tags)
            drop = gen.random() < FLEET_LOSS and streak[tag] < FLEET_MAX_DROP_STREAK
            streak[tag] = streak[tag] + 1 if drop else 0
            schedule.append((tag, drop))
        return SimpleNamespace(proto_seed=proto_seed, schedule=schedule)

    def fresh(self, rf, inputs):
        rng = rf.rng.Rng(inputs.proto_seed)
        db = rf.lwjx.LwjxReaderDb(rf.lwjx.LwjxParams())
        tags = [db.provision(rng) for _ in range(self.tags)]
        return SimpleNamespace(rng=rng, db=db, tags=tags, schedule=inputs.schedule)

    def drive(self, rf, state, gauge) -> Round:
        run_session = rf.lwjx.run_honest_session
        rng, db, tags, schedule = state.rng, state.db, state.tags, state.schedule
        chunks = []
        failed = 0
        for lo in range(0, len(schedule), FLEET_CHUNK):
            samples = []
            start = perf_counter()
            for tag_index, drop in schedule[lo:lo + FLEET_CHUNK]:
                t0 = perf_counter()
                result = run_session(tags[tag_index], db, rng, drop_flow3=drop)
                samples.append((perf_counter() - t0) * 1e6)
                if drop:  # the tag never sees flow3; only the reader judges
                    verdict = result.reader_verdict
                    failed += verdict is None or not verdict.ok
                else:
                    failed += not result.both_accepted
            elapsed = perf_counter() - start
            chunks.append(Chunk(len(samples), elapsed, gauge.factor(), samples))
        gate(failed == 0, f"{failed} sessions not accepted (by the reader, or by the tag)")
        return Round(chunks, failed=failed, sessions_open=len(db.sessions))

    def check(self, rf, state, gauge):
        """Final-state gates: every tag in sync, snapshot round trip."""
        out_of_sync = sum(not rf.lwjx.is_synchronized(state.db, tag) for tag in state.tags)
        gate(out_of_sync == 0, f"{out_of_sync} tags out of sync with the reader")
        path = WORK / f"fleet-snapshot-{os.getpid()}.json"
        try:
            gauge.reset()
            t0 = perf_counter()
            rf.snapshots.snapshot_db(state.db, path)
            dump_us = (perf_counter() - t0) * 1e6 * gauge.factor()
            t0 = perf_counter()
            loaded = rf.snapshots.load_db(path)
            load_us = (perf_counter() - t0) * 1e6 * gauge.factor()
            size = path.stat().st_size
        finally:
            path.unlink(missing_ok=True)
        gate(
            rf.snapshots.lwjx_db_to_doc(loaded) == rf.snapshots.lwjx_db_to_doc(state.db),
            "snapshot changed across dump and load",
        )
        return {"dump_us": dump_us, "load_us": load_us, "bytes": size}


class RecordReplay:
    name = "record-replay"
    op_spans = ("fwcfp.session", "lwjx.session")
    ref_scale = 1

    def __init__(self, sessions=RR_SESSIONS):
        self.sessions = sessions

    def build(self, rf, seed):
        gen = random.Random(f"{self.name}:{seed}")
        return SimpleNamespace(proto_seed=gen.getrandbits(63))

    def fresh(self, rf, inputs):
        f_rng = rf.rng.Rng(inputs.proto_seed, stream=0)
        f_db = rf.fwcfp.FwcfpReaderDb.create(rf.fwcfp.FwcfpParams(), f_rng)
        f_tag = f_db.provision_tag(f_rng)
        l_rng = rf.rng.Rng(inputs.proto_seed, stream=1)
        l_db = rf.lwjx.LwjxReaderDb(rf.lwjx.LwjxParams())
        l_tag = l_db.provision(l_rng)
        return SimpleNamespace(
            pairs=((f_tag, f_db, f_rng, "fwcfp"), (l_tag, l_db, l_rng, "lwjx")),
            lwjx_db=l_db,
        )

    def drive(self, rf, state, gauge) -> Round:
        run_session = {
            "fwcfp": rf.fwcfp.run_honest_session,
            "lwjx": rf.lwjx.run_honest_session,
        }
        transcripts, chunks = [], []
        rejected = expected_fields = 0
        for lo in range(0, self.sessions, RR_CHUNK):
            samples = []
            start = perf_counter()
            for _ in range(lo, min(lo + RR_CHUNK, self.sessions), 2):
                # one FWCFP then one LWJX session; the sample is their mean,
                # since a 50/50 mix of two modes has no meaningful median
                t0 = perf_counter()
                for tag, db, rng, proto in state.pairs:
                    result = run_session[proto](tag, db, rng, disclose_secrets=True)
                    rejected += not result.both_accepted
                    expected_fields += RR_FIELDS[proto]
                    transcripts.append(result.transcript)
                samples.append((perf_counter() - t0) * 1e6 / 2)
            elapsed = perf_counter() - start
            chunks.append(Chunk(len(samples) * 2, elapsed, gauge.factor(), samples))
        path = WORK / f"record-replay-{os.getpid()}.jsonl"
        try:
            t0 = perf_counter()
            rf.transcript.write_jsonl(path, transcripts)
            elapsed = perf_counter() - t0
            chunks.append(Chunk(0, elapsed, gauge.factor(), [], "replay"))
            t0 = perf_counter()
            report = rf.replay.replay_file(path)
            elapsed = perf_counter() - t0
            chunks.append(Chunk(0, elapsed, gauge.factor(), [], "replay"))
            data = path.read_bytes()
        finally:
            path.unlink(missing_ok=True)
        gate(rejected == 0, f"{rejected} honest sessions not accepted by both parties")
        gate(report.ok, f"replay failed: {report.describe()[:500]}")
        gate(
            report.checked == expected_fields,
            f"replay checked {report.checked} fields, expected {expected_fields}",
        )
        return Round(
            chunks,
            failed=rejected + len(report.issues),
            fingerprint={"transcripts.jsonl": hashlib.sha256(data).hexdigest()},
            sessions_open=len(state.lwjx_db.sessions),
            transcript_bytes=len(data),
            fields_checked=report.checked,
        )


WORKLOADS = {w.name: w for w in (TraceMc(), LwjxFleet(), RecordReplay())}


# -- untraced run ------------------------------------------------------------


def setup(workload, seed):
    """Import rfidlab and build the workload's inputs for this process (untimed)."""
    rf = import_rfidlab()
    return rf, workload.build(rf, seed)


def setup_seconds(workload, seed) -> float:
    """``setup_s``: the median of SETUP_REPEATS cold set-ups.

    Each is timed inside a fresh interpreter (setup_probe.py): the import
    of rfidlab with every module it pulls in, then building the inputs and
    provisioning the readers.
    """
    gauge = SpeedGauge(workload.ref_scale)
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             workload.name, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.reset()
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probed = json.loads(proc.stdout.splitlines()[-1])
        times.append((probed["import_s"] + probed["build_s"]) * gauge.factor())
    return statistics.median(times)


def run_round(workload, rf, inputs, gauge, fingerprint=None):
    """One round on fresh state; its report/transcript bytes must match round one."""
    gc.collect()
    state = workload.fresh(rf, inputs)
    gauge.reset()
    result = workload.drive(rf, state, gauge)
    if fingerprint is not None:
        gate(
            result.fingerprint == fingerprint,
            f"output bytes differ between rounds: {result.fingerprint} vs {fingerprint}",
        )
    return state, result


def measure(workload, rf, inputs, seconds, setup_s):
    """Untraced rounds for ``seconds``; the end-to-end metrics.

    Rates use, per chunk position, the median normalised time over the
    rounds; latency percentiles are taken over the per-op medians.
    """
    gauge = SpeedGauge(workload.ref_scale)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        state, result = run_round(
            workload, rf, inputs, gauge, rounds[0].fingerprint if rounds else None
        )
        if not rounds:
            # rounds are identical, so the program peaks in the first; later
            # readings would add the samples this loop keeps, which grow
            # with the number of rounds, i.e. with the program's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(result)
    extra = {}
    if hasattr(workload, "check"):
        extra["snapshot"] = workload.check(rf, state, gauge)

    positions = list(zip(*(r.chunks for r in rounds)))
    norm = [statistics.median(c.norm_seconds for c in p) for p in positions]
    wall = [statistics.median(c.seconds for c in p) for p in positions]
    ops = [p[0].ops for p in positions]
    drive = [i for i, p in enumerate(positions) if p[0].phase != "replay"]
    # every round does identical work, so op j's cost is the median of its
    # normalised times over the rounds; this drops the ms-long stalls that
    # the host inflicts on random ops and keeps the tail the program owns
    per_op = [
        statistics.median(op_times)
        for op_times in zip(
            *([s * c.factor for c in r.chunks for s in c.samples_us] for r in rounds)
        )
    ]
    if per_op:
        p50, p99 = percentile(per_op, 0.50), percentile(per_op, 0.99)
    else:  # trace-mc: one sample per strategy, its median time per trial
        per_strategy = [n * 1e6 / o for n, o in zip(norm, ops)]
        p50, p99 = percentile(per_strategy, 0.50), percentile(per_strategy, 0.99)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(ops) / sum(norm), "1/s"),
        "op_p50_us": (p50, "us"),
        "op_p99_us": (p99, "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    rate_name = "trials_per_s" if workload.name == "trace-mc" else "sessions_per_s"
    detail = {
        "rounds": len(rounds),
        "chunks_per_round": len(positions),
        "op_samples_per_round": len(per_op),
        "fail_ratio": {"failed": failed, "attempted": attempted, "value": failed / attempted},
        "fingerprint_sha256": rounds[0].fingerprint,
        rate_name: sum(ops[i] for i in drive) / sum(norm[i] for i in drive),
        "wall_clock": {
            "ops_per_s": sum(ops) / sum(wall),
        },
        "speed_factor_median": statistics.median(c.factor for r in rounds for c in r.chunks),
        **extra,
    }
    if len(drive) < len(positions):
        replay_s = sum(n for i, n in enumerate(norm) if i not in drive)
        detail["replay_fields_per_s"] = rounds[0].fields_checked / replay_s
    if workload.name == "trace-mc":
        detail["us_per_trial"] = {p[0].phase: s for p, s in zip(positions, per_strategy)}
    return attempted, failed, metrics, detail


# -- traced run --------------------------------------------------------------

PER_LAYER_UNITS = {
    "bits.new_per_op": "count",
    "crypto.hash_calls.H": "count",
    "crypto.hash_calls.G": "count",
    "crypto.hash_calls.feistel": "count",
    "crypto.expand_mask.calls": "count",
    "crypto.hash.self_us": "us",
    "crypto.permute.us": "us",
    "crypto.invert.us": "us",
    "rng.new_per_op": "count",
    "rng.new_us": "us",
    "game.setup_us": "us",
    "game.trial_us": "us",
    "game.queries_per_trial": "count",
    "attacks.strategy_self_us": "us",
    "fwcfp.reader.authenticate_us.p50": "us",
    "fwcfp.reader.authenticate_us.p99": "us",
    "fwcfp.tag.respond_us": "us",
    "fwcfp.tag.finalize_us": "us",
    "fwcfp.session.self_us": "us",
    "lwjx.reader.authenticate_us.p50": "us",
    "lwjx.reader.authenticate_us.p99": "us",
    "lwjx.tag.respond_us": "us",
    "lwjx.tag.finalize_us": "us",
    "lwjx.session.self_us": "us",
    "lwjx.reader.verdict.new-branch": "count",
    "lwjx.reader.verdict.old-branch": "count",
    "lwjx.reader.verdict.warn-limit": "count",
    "lwjx.reader.verdict.bad-key-hash": "count",
    "lwjx.reader.verdict.no-match": "count",
    "lwjx.reader.sessions_open": "count",
    "transcript.write_us": "us",
    "transcript.read_us": "us",
    "transcript.bytes": "count",
    "replay.verify_us": "us",
    "replay.fields_checked": "count",
    "snapshots.dump_us": "us",
    "snapshots.load_us": "us",
    "snapshots.bytes": "count",
    "trace.overhead_pct": "%",
    "trace.spans_per_op": "count",
}


def layer_metrics(tracer: Tracer, result: Round, snapshot: dict, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced round; 0 where the layer is not called.

    Span times are scaled by the round's speed factor (see SpeedGauge).
    """
    spans = tracer.durations(scale=result.speed_factor)
    counts = tracer.counts
    ops = tracer.ops

    def durs(name):
        return spans.get(name, ([], []))[0]

    def selfs(name):
        return spans.get(name, ([], []))[1]

    def mean_us(values):
        return statistics.fmean(values) * 1e6 if values else 0.0

    def pct_us(values, q):
        return percentile(values, q) * 1e6 if values else 0.0

    def per(value, base):
        return value / base if base else 0.0

    trials = len(durs("game.trial"))
    out = {
        "bits.new_per_op": per(tracer.calls["bits.new"], ops),
        "crypto.hash_calls.H": per(counts["crypto.hash_calls.H"], ops),
        "crypto.hash_calls.G": per(counts["crypto.hash_calls.G"], ops),
        "crypto.hash_calls.feistel": per(counts["crypto.hash_calls.feistel"], ops),
        "crypto.expand_mask.calls": per(counts["crypto.expand_mask.calls"], ops),
        "crypto.hash.self_us": mean_us(selfs("crypto.hash")),
        "crypto.permute.us": mean_us(durs("crypto.permute")),
        "crypto.invert.us": mean_us(durs("crypto.invert")),
        "rng.new_per_op": per(tracer.calls["rng.new"], ops),
        "rng.new_us": mean_us(durs("rng.new")),
        "game.setup_us": mean_us(durs("game.setup")),
        "game.trial_us": mean_us(durs("game.trial")),
        "game.queries_per_trial": per(tracer.calls["game.query"], trials),
        "attacks.strategy_self_us": per(sum(selfs("attacks.strategy")) * 1e6, trials),
    }
    for proto in ("fwcfp", "lwjx"):
        auth = durs(f"{proto}.reader.authenticate")
        out[f"{proto}.reader.authenticate_us.p50"] = pct_us(auth, 0.50)
        out[f"{proto}.reader.authenticate_us.p99"] = pct_us(auth, 0.99)
        out[f"{proto}.tag.respond_us"] = mean_us(durs(f"{proto}.tag.respond"))
        out[f"{proto}.tag.finalize_us"] = mean_us(durs(f"{proto}.tag.finalize"))
        out[f"{proto}.session.self_us"] = mean_us(selfs(f"{proto}.session"))
    for reason in ("new-branch", "old-branch", "warn-limit", "bad-key-hash", "no-match"):
        out[f"lwjx.reader.verdict.{reason}"] = counts[f"lwjx.reader.verdict.{reason}"]
    out["lwjx.reader.sessions_open"] = result.sessions_open
    out["transcript.write_us"] = per(sum(durs("transcript.write")) * 1e6, ops)
    out["transcript.read_us"] = per(sum(durs("transcript.read")) * 1e6, ops)
    out["transcript.bytes"] = per(result.transcript_bytes, ops)
    out["replay.verify_us"] = mean_us(durs("replay.verify"))
    out["replay.fields_checked"] = per(counts["replay.fields_checked"], ops)
    out["snapshots.dump_us"] = snapshot.get("dump_us", 0.0)
    out["snapshots.load_us"] = snapshot.get("load_us", 0.0)
    out["snapshots.bytes"] = snapshot.get("bytes", 0)
    out["trace.overhead_pct"] = overhead_pct
    out["trace.spans_per_op"] = per(len(tracer.span_start), ops)
    return out


def deterministic_counts(tracer: Tracer, result: Round) -> dict:
    """The counts two traced runs at one seed must reproduce exactly."""
    return {
        "ops": tracer.ops,
        "counts": dict(sorted(tracer.counts.items())),
        "calls": dict(sorted(tracer.calls.items())),
        "lwjx.reader.sessions_open": result.sessions_open,
    }


def traced_round(workload, rf, inputs, gauge, fingerprint=None):
    """One round with every layer boundary wrapped; returns (tracer, state, round)."""
    gc.collect()
    state = workload.fresh(rf, inputs)
    tracer = Tracer(workload.op_spans)
    gauge.reset()
    tracer.install(rf)
    try:
        result = workload.drive(rf, state, gauge)
    finally:
        tracer.uninstall()
    if fingerprint is not None:
        gate(
            result.fingerprint == fingerprint,
            f"traced output bytes differ from the untraced run: {result.fingerprint}",
        )
    return tracer, state, result


def measure_traced(workload, rf, inputs, seconds, seed):
    """Untraced and traced rounds in turn for ``seconds``; the per-layer metrics.

    Counts must repeat exactly across the traced rounds. Layer timings come
    from the fastest traced round; the overhead compares the fastest
    traced and untraced rounds, all in normalised time.
    """
    gauge = SpeedGauge(workload.ref_scale)
    untraced, best, counts = [], None, None
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        _, reference = run_round(workload, rf, inputs, gauge)
        untraced.append(reference.norm_seconds)
        tracer, state, result = traced_round(
            workload, rf, inputs, gauge, reference.fingerprint
        )
        repeat = deterministic_counts(tracer, result)
        gate(counts is None or repeat == counts, "traced counts differ between rounds")
        counts = repeat
        if best is None or result.norm_seconds < best[2].norm_seconds:
            best = (tracer, state, result)
    tracer, state, result = best
    snapshot = workload.check(rf, state, gauge) if hasattr(workload, "check") else {}
    overhead_pct = (result.norm_seconds / min(untraced) - 1) * 100
    metrics = layer_metrics(tracer, result, snapshot, overhead_pct)
    span_file = WORK / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write_tsv(span_file)
    detail = {
        "traced_rounds": len(untraced),
        "ops": tracer.ops,
        "spans": len(tracer.span_start),
        "span_file": str(span_file.relative_to(ROOT)),
        "untraced_round_s": min(untraced),
        "traced_round_s": result.norm_seconds,
        "fingerprint_sha256": result.fingerprint,
        "counts_sha256": hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
    }
    units = {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}
    return result.ops, result.failed, units, detail


# -- entry point -------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(),
        "workers": 1,
        "clock": "time.perf_counter",
        "ref_nominal_s": REF_NOMINAL_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rfidlab" / "__init__.py").is_file():
        print(f"error: no rfidlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    try:
        rf, inputs = setup(workload, args.seed)
        if args.trace:
            attempted, failed, metrics, detail = measure_traced(
                workload, rf, inputs, args.seconds, args.seed
            )
        else:
            attempted, failed, metrics, detail = measure(
                workload, rf, inputs, args.seconds, setup_seconds(workload, args.seed)
            )
    except GateFailure as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "detail": detail,
    }))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
