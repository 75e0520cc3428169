"""Self-test of the benchmark.

Runs every workload through ``perfbench/run.py --toy``, untraced and
traced, and checks the result line against ``BENCHMARK.json``: every
metric is emitted with its unit, no operation failed, and the traced pass
produced the same outputs as the untraced one.  Takes about two minutes,
most of it in ``verify``, whose size the CLI does not let a caller shrink.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        stem = f"{workload}-seed{SEED}-trace1-toy"
        detail = json.loads((BENCH / "out" / f"results-{stem}.json").read_text())
        assert detail["trace"]["outputs_identical"] is True
        assert (BENCH / "out" / f"spans-{stem}.jsonl.gz").is_file()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".*"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    # root(0..10) -> a(1..4) -> b(2..3); root -> a(5..6)
    span_list = [
        (2, 1, "b", 2.0, 3.0, "r", None),
        (1, 0, "a", 1.0, 4.0, "r", {"points": 5}),
        (3, 0, "a", 5.0, 6.0, "r", {"points": 2}),
        (0, -1, "root", 0.0, 10.0, "r", None),
    ]
    totals = spans.layer_totals(span_list)
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["a"] == {"calls": 2, "s": 4.0, "self_s": 3.0, "points": 7}
    assert totals["b"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_nested_span_of_same_name_is_not_counted_twice():
    span_list = [
        (1, 0, "a", 1.0, 2.0, "r", None),
        (0, -1, "a", 0.0, 4.0, "r", None),
    ]
    totals = spans.layer_totals(span_list)
    assert totals["a"]["s"] == 4.0
    assert totals["a"]["self_s"] == 4.0


def test_uninstall_restores_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    import slicegap
    import slicegap.cli
    from slicegap import levelset, samplers

    before = (levelset.level_interval, samplers.level_interval,
              slicegap.level_interval, levelset.LevelSetFunction.log)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert samplers.level_interval is not before[1]
        assert slicegap.level_interval is not before[2]
    finally:
        tracer.uninstall()
    after = (levelset.level_interval, samplers.level_interval,
             slicegap.level_interval, levelset.LevelSetFunction.log)
    assert all(a is b for a, b in zip(before, after))
