import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "bench_summary.py")


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COUNTS = {"characters.inner_product_calls": 9609, "exactnum.mul_calls": 51234,
          "spectra.levels": 2541, "spectra.oracle_calls": 0}


def write_run(checkout, workload, seed, sha, work_per_s, errors=(), setup_s=0.5,
              counts=COUNTS):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "provenance": {"seed": seed, "src_sha256": sha},
           "end_to_end": {"work_per_s": work_per_s, "setup_s": setup_s},
           "op_latencies_ms": [1.0] * 10, "errors": list(errors)}
    (out / f"{workload}-{seed}-trace0.json").write_text(json.dumps(doc))
    # a traced run: only its work counts are read, not its end-to-end figures
    # or its timed per-layer metrics
    traced = dict(doc, end_to_end={"work_per_s": 999.0, "setup_s": 9.0},
                  per_layer={**counts, "exactnum.mul_ns": 41.5, "spectra.sum_s": 0.2,
                             "spectra.ip_per_level": 3.8})
    (out / f"{workload}-{seed}-trace1.json").write_text(json.dumps(traced))


def test_groups_runs_by_workload_and_code(bench_summary, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for seed, value in ((1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0), (5, 50.0)):
        write_run(tmp_path / "a", "cold-cli", seed, "aaa", value)
    write_run(tmp_path / "b", "cold-cli", 1, "bbb", 7.0, errors=["boom"])
    write_run(tmp_path / "b", "deep-spectrum", 1, "bbb", 3.0)
    assert bench_summary.main(["--pr", "9", f"parent={tmp_path / 'a'}",
                               str(tmp_path / "b")]) == 0
    doc = json.loads((tmp_path / "BENCH_9.json").read_text())
    parent = doc["workloads"]["cold-cli"]["aaa"]
    assert parent["labels"] == ["parent"] and parent["runs"] == 5
    assert parent["seeds"] == [1, 2, 3, 4, 5]
    assert parent["attempted"] == 50 and parent["failed"] == 0
    assert parent["end_to_end"]["work_per_s"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    change = doc["workloads"]["cold-cli"]["bbb"]
    assert change["failed"] == 1 and change["labels"] == [str(tmp_path / "b")]
    assert change["end_to_end"]["work_per_s"] == {"median": 7.0, "q1": 7.0, "q3": 7.0}
    assert doc["workloads"]["deep-spectrum"]["bbb"]["runs"] == 1
    assert doc["trace_counts"] == {
        "cold-cli": {"aaa": {str(seed): COUNTS for seed in range(1, 6)},
                     "bbb": {"1": COUNTS}},
        "deep-spectrum": {"bbb": {"1": COUNTS}}}


def test_labels_each_metric_against_its_bound(bench_summary, tmp_path, monkeypatch):
    # work_per_s: higher is better, bound 0.25 of the parent's median;
    # setup_s: lower is better, and a parent spread of 0.2 / 0.55 is wider
    # than the bound, so only a change whose every run is faster resolves
    monkeypatch.chdir(tmp_path)
    fewer = {**COUNTS, "characters.inner_product_calls": 9000}
    for workload, change, change_setup in (("cold-cli", 7.0, 0.5),
                                           ("deep-spectrum", 13.0, 0.5),
                                           ("verify-harness", 11.0, 0.45)):
        wide = workload != "deep-spectrum"
        for seed, setup in enumerate((0.5, 0.5, 0.6, 1.0), start=1):
            write_run(tmp_path / "a", workload, seed, "aaa", 10.0,
                      setup_s=setup if wide else 0.5)
            write_run(tmp_path / "b", workload, seed, "bbb", change,
                      setup_s=change_setup, counts=fewer if seed == 2 else COUNTS)
    assert bench_summary.main(["--pr", "9", f"parent={tmp_path / 'a'}",
                               f"change={tmp_path / 'b'}"]) == 0
    doc = json.loads((tmp_path / "BENCH_9.json").read_text())
    labels = {w: {m: v["label"] for m, v in metrics.items()}
              for w, metrics in doc["verdicts"].items()}
    assert labels == {
        "cold-cli": {"work_per_s": "worse", "setup_s": "unresolved"},
        "deep-spectrum": {"work_per_s": "better", "setup_s": "within"},
        "verify-harness": {"work_per_s": "within", "setup_s": "better"}}
    cold = doc["verdicts"]["cold-cli"]
    assert cold["work_per_s"]["change_worse_by"] == pytest.approx(0.3)
    assert cold["setup_s"]["parent_spread"] == pytest.approx(0.2 / 0.55)
    assert doc["trace_diff"] == {
        w: {"1": {}, "2": {"characters.inner_product_calls": -609}, "3": {}, "4": {}}
        for w in labels}


def test_the_gain_rule_pairs_runs_by_seed(bench_summary, tmp_path, monkeypatch):
    # parent work_per_s over seeds 1..10 has quartiles 9.925 and 10.075;
    # cold-cli: the change wins 9 pairs and ties one, +2.0 beyond the 0.15
    # spread, and every setup_s pair is lower (lower is better): met;
    # deep-spectrum: +2.0, but it wins only 8 pairs; verify-harness: it wins
    # all 10 pairs, but its median moves by 0.1, inside the spread
    monkeypatch.chdir(tmp_path)
    parent = (9.8, 9.9, 9.9, 10.0, 10.0, 10.0, 10.0, 10.1, 10.1, 10.2)
    change = {"cold-cli": [12.0] * 9 + [10.2],
              "deep-spectrum": [12.0] * 8 + [9.0, 9.0],
              "verify-harness": [p + 0.1 for p in parent]}
    for workload, values in change.items():
        for seed, (old, new) in enumerate(zip(parent, values), start=1):
            write_run(tmp_path / "a", workload, seed, "aaa", old, setup_s=0.5)
            write_run(tmp_path / "b", workload, seed, "bbb", new, setup_s=0.4)
    write_run(tmp_path / "b", "cold-cli", 11, "bbb", 12.0, setup_s=0.4)   # no partner
    assert bench_summary.main(["--pr", "9", f"parent={tmp_path / 'a'}",
                               f"change={tmp_path / 'b'}"]) == 0
    doc = json.loads((tmp_path / "BENCH_9.json").read_text())
    rule = {w: {m: (v["pairs"], v["wins"], v["gain_rule_met"]) for m, v in metrics.items()}
            for w, metrics in doc["verdicts"].items()}
    assert rule == {"cold-cli": {"work_per_s": (10, 9, True), "setup_s": (10, 10, True)},
                    "deep-spectrum": {"work_per_s": (10, 8, False),
                                      "setup_s": (10, 10, True)},
                    "verify-harness": {"work_per_s": (10, 10, False),
                                       "setup_s": (10, 10, True)}}


def test_no_results_is_an_error(bench_summary, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench_summary.main(["--pr", "9", str(tmp_path)]) == 2
    assert not (tmp_path / "BENCH_9.json").exists()
