"""Checks of the benchmark's tracer and gates on tiny workloads.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from tracer import Tracer

TINY = {
    "trace-mc": run.TraceMc(
        mix=(
            ("fwcfp", "fwcfp-trace", 200),
            ("fwcfp", "fwcfp-backtrace", 200),
            ("lwjx", "lwjx-trace-id", 200),
        )
    ),
    "lwjx-fleet": run.LwjxFleet(tags=32, sessions=200),
    "record-replay": run.RecordReplay(sessions=40),
}


def setUpModule():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)


def bindings(rf) -> dict:
    """Every attribute of every rfidlab module and class, by identity."""
    out = {}
    for mod_name in run.MODULES + ("pkg",):
        module = getattr(rf, mod_name)
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("rfidlab"):
                for member, inner in vars(value).items():
                    out[(mod_name, attr, member)] = inner
    return out


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.rf = run.import_rfidlab()

    def traced(self, fn):
        tracer = Tracer(op_spans=("fwcfp.session", "lwjx.session"))
        tracer.install(self.rf)
        try:
            fn()
        finally:
            tracer.uninstall()
        return tracer

    def test_every_wrapped_name_records_calls(self):
        wrapped, called, states = set(), set(), {}
        for name, workload in TINY.items():
            inputs = workload.build(self.rf, seed=3)
            tracer, states[name], _ = run.traced_round(
                workload, self.rf, inputs, run.SpeedGauge()
            )
            wrapped |= tracer.wrapped
            called |= {name for name, n in tracer.calls.items() if n}
        path = run.WORK / f"test-snapshot-{os.getpid()}.json"

        def snapshot_round_trip():
            self.rf.snapshots.snapshot_db(states["lwjx-fleet"].db, path)
            self.rf.snapshots.load_db(path)

        try:
            tracer = self.traced(snapshot_round_trip)
        finally:
            path.unlink(missing_ok=True)
        called |= {name for name, n in tracer.calls.items() if n}
        self.assertGreater(len(wrapped), 20)
        self.assertEqual(wrapped - called, set())

    def test_lwjx_new_branch_session_counts(self):
        lwjx = self.rf.lwjx
        rng = self.rf.rng.Rng(11)
        db = lwjx.LwjxReaderDb(lwjx.LwjxParams())
        tag = db.provision(rng)
        results = []
        tracer = self.traced(lambda: results.append(lwjx.run_honest_session(tag, db, rng)))
        self.assertEqual(results[0].reader_verdict.reason, "new-branch")
        self.assertEqual(tracer.counts["crypto.hash_calls.H"], 6)
        self.assertEqual(tracer.counts["crypto.hash_calls.G"], 2)
        self.assertEqual(tracer.ops, 1)

    def test_fwcfp_honest_session_counts(self):
        fwcfp = self.rf.fwcfp
        rng = self.rf.rng.Rng(11)
        db = fwcfp.FwcfpReaderDb.create(fwcfp.FwcfpParams(), rng)
        tag = db.provision_tag(rng)
        results = []
        tracer = self.traced(lambda: results.append(fwcfp.run_honest_session(tag, db, rng)))
        self.assertTrue(results[0].both_accepted)
        self.assertEqual(tracer.counts["crypto.hash_calls.H"], 4)
        self.assertEqual(tracer.counts["crypto.hash_calls.feistel"], 8)
        self.assertEqual(tracer.counts["crypto.expand_mask.calls"], 16)
        self.assertEqual(tracer.ops, 1)

    def test_uninstall_restores_the_original_functions(self):
        before = bindings(self.rf)
        tracer = Tracer(op_spans=())
        tracer.install(self.rf)
        patched = bindings(self.rf)
        self.assertNotEqual(
            [k for k in before if before[k] is not patched.get(k)], []
        )
        tracer.uninstall()
        after = bindings(self.rf)
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if before[k] is not after[k]], [])


class RepeatabilityTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for name, workload in TINY.items():
            for seed in (5, 6):
                with self.subTest(workload=name, seed=seed):
                    runs = []
                    for _ in range(2):
                        rf, inputs = run.setup(workload, seed)
                        tracer, _, result = run.traced_round(
                            workload, rf, inputs, run.SpeedGauge()
                        )
                        runs.append(run.deterministic_counts(tracer, result))
                    self.assertEqual(runs[0], runs[1])
                    self.assertGreater(runs[0]["ops"], 0)

    def test_traced_report_bytes_equal_untraced(self):
        workload = TINY["trace-mc"]
        rf, inputs = run.setup(workload, 9)
        _, _, _, untraced = run.measure(workload, rf, inputs, 0.0, setup_s=1.0)
        _, failed, metrics, traced = run.measure_traced(workload, rf, inputs, 0.0, 9)
        (run.ROOT / traced["span_file"]).unlink()
        self.assertEqual(failed, 0)
        self.assertEqual(traced["fingerprint_sha256"], untraced["fingerprint_sha256"])
        self.assertEqual(set(metrics), set(run.PER_LAYER_UNITS))

    def test_fleet_gate_catches_a_tag_rejecting_the_reply(self):
        workload = TINY["lwjx-fleet"]
        rf, inputs = run.setup(workload, 4)
        tag_cls = rf.lwjx.LwjxTag
        finalize = tag_cls.finalize
        calls = []

        def flaky_finalize(tag, flow3):
            calls.append(1)
            if len(calls) % 7 == 0:
                return rf.lwjx.SessionVerdict("tag", False, "bad-hkt")
            return finalize(tag, flow3)

        tag_cls.finalize = flaky_finalize
        try:
            with self.assertRaisesRegex(run.GateFailure, "not accepted"):
                run.run_round(workload, rf, inputs, run.SpeedGauge())
        finally:
            tag_cls.finalize = finalize

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(Path(run.__file__).parent, Path(bare) / "bench")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "trace-mc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
