"""Span tracer for the benchmark's traced run.

The tracer wraps rfidlab's public functions and methods from the outside,
so the program itself carries no tracing code. A function is replaced in
every rfidlab module that holds it, not only where it is defined:
``fwcfp``, ``lwjx``, ``attacks`` and ``replay`` bind ``truncated_hash`` and
``expand_mask`` at import time, so patching ``crypto.truncated_hash`` alone
would catch the Feistel rounds and miss every protocol hash.

Each wrapped call records a span (name, start, end, parent span, op id) in
flat in-memory arrays; ``write_tsv`` writes them out once the run is over.
Counters (hash calls by domain tag, BitString and Rng constructions,
reader verdicts, ...) are recorded at the same boundaries. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from time import perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores rfidlab.

    ``op_spans`` names the spans that delimit one op (a game trial or an
    honest session); every span opened inside one carries its op id.
    """

    def __init__(self, op_spans):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()  # calls per wrapper name
        self.wrapped: set[str] = set()  # every wrapper name installed
        self.ops = 0
        self._op_ids = {self._intern(name) for name in op_spans}
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn, *, before=None, after=None, skip_inside=None):
        """A wrapper that records a span around fn.

        ``before(args)`` and ``after(result)`` record counts. When the
        innermost open span is named ``skip_inside`` the call is counted but
        gets no span of its own (the enclosing span already covers it).
        """
        nid = self._intern(name)
        self.wrapped.add(name)
        skip_id = None if skip_inside is None else self._intern(skip_inside)
        starts_op = nid in self._op_ids
        calls = self.calls
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            if skip_id is not None and stack and names[stack[-1]] == skip_id:
                return fn(*args, **kwargs)
            opened_op = starts_op and self._op < 0
            if opened_op:
                self._op = self.ops
                self.ops += 1
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                if opened_op:
                    self._op = -1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        """A wrapper that only counts calls (for very frequent, tiny calls)."""
        self.wrapped.add(key)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch_function(self, original, wrapper):
        """Replace original in every loaded rfidlab module that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "rfidlab" or mod_name.startswith("rfidlab.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, rf):
        """Wrap the layer boundaries of the rfidlab modules held in ``rf``."""
        counts = self.counts
        crypto = rf.crypto
        hash_keys = {crypto.H_TAG: "crypto.hash_calls.H", crypto.G_TAG: "crypto.hash_calls.G"}
        for rnd in range(crypto.FEISTEL_ROUNDS):
            hash_keys[crypto.FEISTEL_TAG_BASE + rnd] = "crypto.hash_calls.feistel"

        def count_hash(args):
            counts[hash_keys.get(args[0].domain_tag, "crypto.hash_calls.other")] += 1

        def count_expand(args):
            counts["crypto.expand_mask.calls"] += 1

        def count_verdict(result):
            counts[f"lwjx.reader.verdict.{result[0].reason}"] += 1

        def count_fields(report):
            counts["replay.fields_checked"] += report.checked

        self.patch_function(
            crypto.truncated_hash,
            self.spanned("crypto.hash", crypto.truncated_hash, before=count_hash),
        )
        self.patch_function(
            crypto.expand_mask,
            self.spanned(
                "crypto.expand_mask",
                crypto.expand_mask,
                before=count_expand,
                skip_inside="crypto.hash",
            ),
        )
        self.patch_function(crypto.permute, self.spanned("crypto.permute", crypto.permute))
        self.patch_function(crypto.invert, self.spanned("crypto.invert", crypto.invert))

        bits_cls = rf.bits.BitString
        self.patch_method(bits_cls, "__init__", self.counted("bits.new", bits_cls.__init__))
        rng_cls = rf.rng.Rng
        self.patch_method(rng_cls, "__init__", self.spanned("rng.new", rng_cls.__init__))

        game = rf.game
        self.patch_function(
            game.estimate_advantage, self.spanned("game.estimate", game.estimate_advantage)
        )
        self.patch_function(
            game.run_single_trial, self.spanned("game.trial", game.run_single_trial)
        )
        self.patch_method(
            game.UprivGame, "__init__", self.spanned("game.setup", game.UprivGame.__init__)
        )
        for query in (
            "execute", "send_to_tag", "reader_begin", "send_to_reader", "corrupt", "run_test"
        ):
            self.patch_method(
                game.UprivGame,
                query,
                self.spanned("game.query", game.UprivGame.__dict__[query]),
            )
        strategies = [game.AdversaryStrategy] + [
            value
            for value in vars(rf.attacks).values()
            if isinstance(value, type) and issubclass(value, game.AdversaryStrategy)
        ]
        for cls in dict.fromkeys(strategies):
            for phase in ("learning", "challenge", "guess"):
                if phase in cls.__dict__:
                    self.patch_method(
                        cls, phase, self.spanned("attacks.strategy", cls.__dict__[phase])
                    )

        for proto, tag_cls, db_cls, on_verdict in (
            (rf.fwcfp, rf.fwcfp.FwcfpTag, rf.fwcfp.FwcfpReaderDb, None),
            (rf.lwjx, rf.lwjx.LwjxTag, rf.lwjx.LwjxReaderDb, count_verdict),
        ):
            name = proto.PROTOCOL_NAME
            for method in ("respond", "finalize"):
                self.patch_method(
                    tag_cls,
                    method,
                    self.spanned(f"{name}.tag.{method}", tag_cls.__dict__[method]),
                )
            self.patch_method(
                db_cls,
                "authenticate",
                self.spanned(
                    f"{name}.reader.authenticate",
                    db_cls.__dict__["authenticate"],
                    after=on_verdict,
                ),
            )
            self.patch_function(
                proto.run_honest_session,
                self.spanned(f"{name}.session", proto.run_honest_session),
            )

        transcript = rf.transcript
        self.patch_function(
            transcript.write_jsonl, self.spanned("transcript.write", transcript.write_jsonl)
        )
        self.patch_function(
            transcript.read_jsonl, self.spanned("transcript.read", transcript.read_jsonl)
        )
        replay = rf.replay
        self.patch_function(replay.replay_file, self.spanned("replay.file", replay.replay_file))
        self.patch_function(
            replay.verify_transcript,
            self.spanned("replay.verify", replay.verify_transcript, after=count_fields),
        )
        snapshots = rf.snapshots
        self.patch_function(
            snapshots.snapshot_db, self.spanned("snapshots.dump", snapshots.snapshot_db)
        )
        self.patch_function(snapshots.load_db, self.spanned("snapshots.load", snapshots.load_db))

    # -- analysis ---------------------------------------------------------

    def durations(self, scale: float = 1.0) -> dict[str, tuple[list[float], list[float]]]:
        """Span name -> (durations, self times), in seconds times ``scale``."""
        n = len(self.span_start)
        total = [(self.span_end[i] - self.span_start[i]) * scale for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += total[i]
        out: dict[str, tuple[list[float], list[float]]] = {
            name: ([], []) for name in self.names
        }
        for i in range(n):
            durs, selfs = out[self.names[self.span_name[i]]]
            durs.append(total[i])
            selfs.append(total[i] - child[i])
        return out

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                    f"\t{self.span_op[i]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )
