"""tools/bench_pairs.py: pairing, summary and the record it writes."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# a stand-in for perfbench/run.py: its metrics are its seed and a constant,
# and a traced run reports a per-layer count instead
FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
metrics = {"ops_per_s": {"value": seed * OPS, "unit": "1/s"},
           "peak_rss_mb": {"value": RSS, "unit": "MiB"}}
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    metrics = {"simulate.simulate_rounds.calls": {"value": seed, "unit": "count"}}
print("detail " + json.dumps({"src_sha256": "SIDE"}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def run(metrics=None, **extra):
    return {"exit": 0, "correct": True, "metrics": metrics or {}, **extra}


def test_order_alternates():
    assert [bench_pairs.order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(bench_pairs.order(i)) == ["change", "parent"] for i in range(4))


def test_summarise_counts_wins_by_direction():
    pairs = [
        {"parent": run({"ops_per_s": p, "peak_rss_mb": 80.0}),
         "change": run({"ops_per_s": c, "peak_rss_mb": 40.0})}
        for p, c in [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (4.0, 5.0), (5.0, 6.0)]
    ]
    out = bench_pairs.summarise(pairs, METRICS)
    ops = out["ops_per_s"]
    # a tie counts for neither side
    assert ops["change_better"] == 3 and ops["pairs"] == 5
    assert ops["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert ops["ratio_median"] == pytest.approx(1.2)
    rss = out["peak_rss_mb"]
    assert rss["change_better"] == 5 and rss["ratio_median"] == 0.5
    assert rss["better"] == "lower" and rss["unit"] == "MiB"


def test_summarise_skips_pairs_with_a_failed_run():
    pairs = [
        {"parent": run({"ops_per_s": 1.0}), "change": run({"ops_per_s": 2.0})},
        {"parent": {"exit": 1, "error": ["boom"]}, "change": run({"ops_per_s": 9.0})},
    ]
    out = bench_pairs.summarise(pairs, METRICS)
    assert out["ops_per_s"]["pairs"] == 1
    assert out["ops_per_s"]["change"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert "peak_rss_mb" not in out


def fake_checkout(root, ops, rss):
    (root / "perfbench").mkdir(parents=True)
    code = FAKE_RUN.replace("OPS", str(ops)).replace("RSS", str(rss))
    (root / "perfbench" / "run.py").write_text(code.replace("SIDE", root.name))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": METRICS}))
    return root


def test_main_writes_paired_record(tmp_path):
    parent = fake_checkout(tmp_path / "parent", 1.0, 80.0)
    change = fake_checkout(tmp_path / "change", 2.0, 40.0)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--workload", "w",
        "--pairs", "3", "--seed-base", "10", "--out", str(out),
    ])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["parent"]["git_sha"] is None and record["host"]["nproc"] >= 1
    assert record["seconds"] == 1
    w = record["workloads"]["w"]
    assert [p["seed"] for p in w["pairs"]] == [10, 11, 12]
    assert [p["first"] for p in w["pairs"]] == ["parent", "change", "parent"]
    assert w["pairs"][0]["change"]["src_sha256"] == "change"
    assert w["runs_correct"] == {"parent": 3, "change": 3}
    assert w["summary"]["ops_per_s"]["change"]["median"] == 22.0
    assert w["summary"]["peak_rss_mb"]["change_better"] == 3


def test_main_records_one_traced_run_per_side(tmp_path):
    parent = fake_checkout(tmp_path / "parent", 1.0, 80.0)
    change = fake_checkout(tmp_path / "change", 2.0, 40.0)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--workload", "w",
        "--workload", "v", "--pairs", "2", "--seed-base", "5", "--out", str(out),
    ])
    assert code == 0
    for w in json.loads(out.read_text())["workloads"].values():
        # the pairs stay untraced, and each side gets one traced run
        assert w["summary"]["ops_per_s"]["pairs"] == 2
        assert w["runs_correct"] == {"parent": 2, "change": 2}
        for side in ("parent", "change"):
            traced = w["traced"][side]
            assert traced["correct"] is True and traced["src_sha256"] == side
            assert traced["metrics"] == {"simulate.simulate_rounds.calls": 5}


def test_main_rejects_a_directory_without_the_benchmark(tmp_path, capsys):
    change = fake_checkout(tmp_path / "change", 2.0, 40.0)
    code = bench_pairs.main([
        "--parent", str(tmp_path), "--change", str(change), "--workload", "w",
        "--pairs", "1", "--seed-base", "0", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2 and "no perfbench/run.py" in capsys.readouterr().err
