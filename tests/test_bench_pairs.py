"""scripts/bench_pairs.py's summary, fed canned benchmark result lines."""

import importlib.util
import json
import os
import platform
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.18},
]
NAMES = [spec["name"] for spec in END_TO_END]


def result(ops, p50, failed=0):
    """One result line of bench/run.py, as parsed JSON."""
    return {
        "correct": True,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "op_p50_us": {"value": p50, "unit": "us"},
        },
    }


def test_medians_ratios_and_wins():
    pairs = [
        (result(100, 10.0), result(110, 9.0)),
        (result(120, 12.0), result(120, 12.0)),  # a tie counts for neither side
        (result(80, 8.0), result(100, 10.0, failed=2)),
    ]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["pairs"] == 3
    assert summary["attempted"] == [3000, 3000]
    assert summary["failed"] == [0, 2]
    ops = summary["metrics"]["ops_per_s"]
    assert (ops["median_a"], ops["median_b"]) == (100, 110)
    assert ops["ratios"] == [1.1, 1.0, 1.25]
    assert ops["wins_b"] == 2
    assert ops["better"] == "higher"
    p50 = summary["metrics"]["op_p50_us"]
    assert (p50["median_a"], p50["median_b"]) == (10.0, 10.0)
    assert p50["ratios"] == [0.9, 1.0, 1.25]
    assert p50["wins_b"] == 1  # lower is better: only the first pair


def test_quartiles_of_each_side():
    pairs = [(result(a, 1.0), result(a + 1, 1.0)) for a in (10, 20, 30, 40, 50)]
    ops = bench_pairs.summarize(pairs, END_TO_END)["metrics"]["ops_per_s"]
    assert ops["quartiles_a"] == [15.0, 45.0]
    assert ops["quartiles_b"] == [16.0, 46.0]
    single = bench_pairs.summarize(pairs[:1], END_TO_END)["metrics"]["ops_per_s"]
    assert single["quartiles_a"] == [10, 10]


def verdicts(a_ops, b_ops, a_p50=None, b_p50=None):
    """The verdicts on ops_per_s (bound 0.2) and op_p50_us (bound 0.18)."""
    a_p50 = a_p50 or [10.0] * len(a_ops)
    b_p50 = b_p50 or [10.0] * len(b_ops)
    pairs = [
        (result(x, p), result(y, q)) for x, y, p, q in zip(a_ops, b_ops, a_p50, b_p50)
    ]
    metrics = bench_pairs.summarize(pairs, END_TO_END)["metrics"]
    return metrics["ops_per_s"]["verdict"], metrics["op_p50_us"]["verdict"]


STEADY = [99, 100, 101] * 3 + [100]  # median 100, interquartile range 2


def test_regression_is_worse_by_more_than_the_bound():
    assert verdicts(STEADY, [79] * 10)[0] == "regression"
    assert verdicts(STEADY, [81] * 10)[0] == "no regression"
    # lower is better for latency: 11.9 is 19% above 10.0, past the 0.18 bound
    assert verdicts(STEADY, STEADY, [10.0] * 10, [11.9] * 10)[1] == "regression"
    assert verdicts(STEADY, STEADY, [10.0] * 10, [11.7] * 10)[1] == "no regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60, 140] * 5  # median 100, interquartile range 80 > 0.2 * 100
    assert verdicts(wide, [100] * 10)[0] == "unresolved"
    # a regression is reported as one, however wide the spread
    assert verdicts(wide, [70] * 10)[0] == "regression"
    # unless every run of B beats every run of A
    assert verdicts(wide, [141] * 10)[0] == "no regression"


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    assert verdicts(STEADY, [103] * 10)[0] == "gain"
    # lower is better for latency
    assert verdicts(STEADY, STEADY, [10.0] * 10, [9.0] * 10)[1] == "gain"
    # nine wins in ten are enough, eight are not
    assert verdicts(STEADY, [103] * 9 + [90])[0] == "gain"
    assert verdicts(STEADY, [103] * 8 + [90] * 2)[0] == "no regression"
    # ten wins, but a gap of 1.5 within the interquartile range of 2
    assert verdicts(STEADY, [y + 1.5 for y in STEADY])[0] == "no regression"


def fail_share(failed_a, failed_b, attempted_b=1000):
    """The fail_share block of two single-pair runs; A attempts 1000."""
    run_b = result(100, 10.0, failed=failed_b)
    run_b["attempted"] = attempted_b
    pairs = [(result(100, 10.0, failed=failed_a), run_b)]
    return bench_pairs.summarize(pairs, END_TO_END)["fail_share"]


def test_fail_share_of_each_side():
    assert fail_share(0, 0) == {"a": 0.0, "b": 0.0, "verdict": "no regression"}
    assert fail_share(5, 2) == {"a": 0.005, "b": 0.002, "verdict": "no regression"}
    assert fail_share(2, 2) == {"a": 0.002, "b": 0.002, "verdict": "no regression"}


def test_a_larger_failed_share_of_b_is_a_regression():
    assert fail_share(0, 1)["verdict"] == "regression"
    # the share, not the count: B fails as often but attempts half as much
    assert fail_share(2, 2, attempted_b=500) == {"a": 0.002, "b": 0.004, "verdict": "regression"}
    # and fewer failures of B over far fewer attempts still count against it
    assert fail_share(4, 3, attempted_b=500)["verdict"] == "regression"


def test_no_attempts_read_as_no_failed_share():
    assert fail_share(0, 0, attempted_b=0) == {"a": 0.0, "b": 0.0, "verdict": "no regression"}


def run_main(monkeypatch, capsys, tmp_path, run_a, run_b):
    """main() over two pairs whose runs are canned: A gives run_a, B run_b.

    The metrics and bounds are END_TO_END's, not BENCHMARK.json's.
    """
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", benchmark)
    canned = {Path("a"): run_a, Path("b"): run_b}
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda checkout, workload, seed, seconds, names: canned[checkout]
    )
    code = bench_pairs.main(
        ["a", "b", "--workload", "w", "--pairs", "2", "--seconds", "1", "--seed", "5"]
    )
    out, _ = capsys.readouterr()
    return code, json.loads(out)


def test_exit_status_is_0_without_a_regression(monkeypatch, capsys, tmp_path):
    code, line = run_main(monkeypatch, capsys, tmp_path, result(100, 10.0), result(95, 10.5))
    assert code == 0
    assert line["seeds"] == [5, 6]
    assert {m["verdict"] for m in line["metrics"].values()} == {"no regression"}


def test_exit_status_is_2_on_any_regression(monkeypatch, capsys, tmp_path):
    # a metric past its bound
    code, line = run_main(monkeypatch, capsys, tmp_path, result(100, 10.0), result(100, 12.0))
    assert code == 2
    assert line["metrics"]["op_p50_us"]["verdict"] == "regression"
    # a larger failed share, every metric unchanged
    code, line = run_main(
        monkeypatch, capsys, tmp_path, result(100, 10.0), result(100, 10.0, failed=1)
    )
    assert code == 2
    assert line["fail_share"]["verdict"] == "regression"


@pytest.mark.parametrize(
    "last_line",
    [
        "not json",
        "[1, 2]",
        "{}",
        '{"metrics": 5, "attempted": 1, "failed": 0}',
        '{"metrics": {}, "failed": 0}',
        '{"metrics": {}, "attempted": 1}',
        '{"metrics": {}, "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}}, "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": 2}, "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": {}}, "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": {"value": "2"}},'
        ' "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": {"value": null}},'
        ' "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": {"value": true}},'
        ' "attempted": 1, "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": {"value": 2}},'
        ' "attempted": "1", "failed": 0}',
        '{"metrics": {"ops_per_s": {"value": 1}, "op_p50_us": {"value": 2}},'
        ' "attempted": 1, "failed": null}',
    ],
    ids=["not-json", "array", "empty-object", "metrics-not-an-object", "no-attempted",
         "no-failed", "no-metric", "a-metric-missing", "metric-not-an-object", "no-value",
         "value-a-string", "value-null", "value-a-bool", "attempted-a-string", "failed-null"],
)
def test_a_last_line_that_is_not_a_json_object_is_one_error_line(tmp_path, last_line):
    """Not a JSON object, or an object without a result's keys or a declared metric's value."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(f"print({last_line!r})\n")
    with pytest.raises(SystemExit) as caught:
        bench_pairs.run_once(tmp_path, "w", 1, 1.0, NAMES)
    message = caught.value.code
    assert message.startswith("error: ") and "\n" not in message, message
    assert repr(last_line) in message


def test_a_result_object_passes_the_shape_check(tmp_path):
    line = json.dumps(result(100, 10.0))
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(f"print({line!r})\n")
    assert bench_pairs.run_once(tmp_path, "w", 1, 1.0, NAMES) == result(100, 10.0)


def git_checkout(path, modified):
    """A one-commit git repository at path; its commit id."""
    path.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
             *args],
            cwd=path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (path / "f").write_text("1\n")
    git("add", "f")
    git("commit", "-q", "-m", "one")
    if modified:
        (path / "f").write_text("2\n")
    return git("rev-parse", "HEAD")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_out_writes_the_line_with_the_host_and_the_commits(monkeypatch, capsys, tmp_path):
    commit_a = git_checkout(tmp_path / "a", modified=False)
    commit_b = git_checkout(tmp_path / "b", modified=True)
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", benchmark)
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda checkout, workload, seed, seconds, names: result(100, 10.0)
    )
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "w", "--pairs", "2",
            "--seconds", "1", "--seed", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    line = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())
    assert written == {
        **line,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "checkouts": {
            "a": {"path": str((tmp_path / "a").resolve()), "commit": commit_a, "modified": False,
                  "bytecode_cached": {"before": False, "after": False}},
            "b": {"path": str((tmp_path / "b").resolve()), "commit": commit_b, "modified": True,
                  "bytecode_cached": {"before": False, "after": False}},
        },
    }
    assert written["seeds"] == [5, 6]


@pytest.mark.parametrize("name_b, warned", [("b", False), ("bb", True)])
def test_checkout_paths_of_unequal_length_are_warned_of(
    monkeypatch, capsys, tmp_path, name_b, warned
):
    (tmp_path / "a").mkdir()
    (tmp_path / name_b).mkdir()
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", benchmark)
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda checkout, workload, seed, seconds, names: result(100, 10.0)
    )
    # a relative path is resolved before its length is taken
    monkeypatch.chdir(tmp_path)
    argv = ["a", str(tmp_path / name_b), "--workload", "w", "--pairs", "1",
            "--seconds", "1", "--seed", "5"]
    assert bench_pairs.main(argv) == 0
    warnings = [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
    ]
    a, b = str(tmp_path.resolve() / "a"), str(tmp_path.resolve() / name_b)
    assert warnings == (
        [f"warning: the checkout paths differ in length ({len(a)} and {len(b)} characters),"
         f" and peak_rss_mb follows a path's length: {a} {b}"]
        if warned else []
    )


def test_a_checkout_outside_git_has_no_commit(tmp_path):
    assert bench_pairs.checkout_commit(tmp_path) == {"commit": None, "modified": None}


def test_checkouts_that_hold_cached_bytecode_are_warned_of(monkeypatch, capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "src" / "rfidlab" / "__pycache__").mkdir(parents=True)
    b.mkdir()
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", benchmark)

    def run_once(checkout, workload, seed, seconds, names):
        # as a run that writes bytecode does
        (checkout / "src" / "rfidlab" / "__pycache__").mkdir(parents=True, exist_ok=True)
        return result(100, 10.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    argv = [str(a), str(b), "--workload", "w", "--pairs", "1", "--seconds", "1",
            "--seed", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    warnings = [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
    ]
    cached = "holds src/rfidlab/__pycache__ {}, so its setup_s may time an import of cached bytecode"
    assert warnings == [
        f"warning: checkout A {cached.format('before the first pair')}: {a}",
        f"warning: checkout A {cached.format('after the last pair')}: {a}",
        f"warning: checkout B {cached.format('after the last pair')}: {b}",
    ]
    checkouts = json.loads(out.read_text())["checkouts"]
    assert checkouts["a"]["bytecode_cached"] == {"before": True, "after": True}
    assert checkouts["b"]["bytecode_cached"] == {"before": False, "after": True}
