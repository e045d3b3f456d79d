"""Summarise perfbench result files into BENCH_<pr>.json in the current directory.

    python3 tools/bench_summary.py --pr 10 parent=../parent-checkout change=.

Each argument is a checkout, optionally prefixed by a label.  The tool reads
every end-to-end result file `.perfbench_out/<workload>-<seed>-trace0.json`
in each checkout and groups the runs by workload and by the digest of the
code they measured (`provenance.src_sha256`).  For each group it writes the
run count, the operations attempted and failed, and the median, first and
third quartile of each end-to-end metric.  Quartiles use the inclusive
method (linear interpolation between order statistics).

It also reads every traced result file `<workload>-<seed>-trace1.json` and
writes, under `trace_counts`, per workload, code digest and seed, the exact
work counts of its per-layer metrics: every `*_calls` count and
`spectra.levels`.  For one seed they do not depend on the machine's speed.

When checkouts are labelled `parent` and `change`, it also writes, under
`verdicts`, each end-to-end metric of each workload as `better`, `within`,
`worse` or `unresolved` against its bound in BENCHMARK.json (a share of the
parent's median): unresolved when the parent's own quartile spread,
(q3 - q1) / median, is wider than the bound, unless every run of the
change is better than every run of the parent (then better); otherwise
better or worse when the change's median moves the metric's way or against
it by more than the bound.  Each metric also carries the gain rule: the
runs of the two sides are paired by seed, `pairs` counts the pairs and
`wins` those where the change's value is better (a tie counts for neither),
and `gain_rule_met` is true when the change wins at least 9 in 10 pairs
and its median moves the metric's way by more than the parent's quartile
spread, q3 - q1.  Under `trace_diff` it writes, per workload and per seed
that both sides traced, each work count that differs as the change's count
minus the parent's; an empty map means equal counts.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def load_docs(checkout: str, trace: int) -> list[dict]:
    pattern = os.path.join(checkout, ".perfbench_out", f"*-trace{trace}.json")
    docs = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def load_runs(label: str, checkout: str) -> list[dict]:
    runs = []
    for doc in load_docs(checkout, 0):
        runs.append({"label": label, "workload": doc["workload"],
                     "seed": doc["provenance"]["seed"],
                     "src_sha256": doc["provenance"]["src_sha256"],
                     "attempted": len(doc["op_latencies_ms"]),
                     "failed": len(doc["errors"]),
                     "end_to_end": doc["end_to_end"]})
    return runs


def summarise(runs: list[dict]) -> dict:
    """workload -> src_sha256 -> counts and per-metric quartiles."""
    groups: dict[str, dict[str, list[dict]]] = {}
    for run in runs:
        groups.setdefault(run["workload"], {}).setdefault(run["src_sha256"], []).append(run)
    out = {}
    for workload, by_code in sorted(groups.items()):
        out[workload] = {}
        for sha, group in sorted(by_code.items()):
            metrics = sorted({m for run in group for m in run["end_to_end"]})
            out[workload][sha] = {
                "labels": sorted({run["label"] for run in group}),
                "runs": len(group),
                "seeds": sorted(run["seed"] for run in group),
                "attempted": sum(run["attempted"] for run in group),
                "failed": sum(run["failed"] for run in group),
                "end_to_end": {m: quartiles([run["end_to_end"][m] for run in group
                                             if m in run["end_to_end"]])
                               for m in metrics},
            }
    return out


def verdicts(runs: list[dict], bounds: list[dict]) -> dict:
    """workload -> metric -> the change against the parent (module doc)."""
    out: dict = {}
    for workload in sorted({run["workload"] for run in runs}):
        side = {label: [run for run in runs
                        if run["workload"] == workload and run["label"] == label]
                for label in ("parent", "change")}
        for metric in bounds:
            name, bound = metric["name"], metric["bound"]
            values = {label: [(run["seed"], run["end_to_end"][name]) for run in side[label]
                              if name in run["end_to_end"]]
                      for label in side}
            if not all(values.values()):
                continue
            parent = quartiles([v for _, v in values["parent"]])
            change = quartiles([v for _, v in values["change"]])["median"]
            way = 1 if metric["better"] == "higher" else -1
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            worse_by = -way * (change - parent["median"]) / parent["median"]
            every_run_better = (min(way * v for _, v in values["change"])
                                > max(way * v for _, v in values["parent"]))
            if spread > bound:
                label = "better" if every_run_better else "unresolved"
            else:
                label = ("worse" if worse_by > bound
                         else "better" if -worse_by > bound else "within")
            by_seed = dict(values["parent"])
            pairs = [(by_seed[seed], v) for seed, v in values["change"] if seed in by_seed]
            wins = sum(way * (v - p) > 0 for p, v in pairs)
            out.setdefault(workload, {})[name] = {
                "label": label, "bound": bound, "parent_spread": spread,
                "change_worse_by": worse_by, "pairs": len(pairs), "wins": wins,
                "gain_rule_met": bool(pairs) and wins >= 0.9 * len(pairs)
                and way * (change - parent["median"]) > parent["q3"] - parent["q1"]}
    return out


def work_counts(doc: dict) -> dict:
    return {m: v for m, v in doc["per_layer"].items()
            if m.endswith("_calls") or m == "spectra.levels"}


def trace_counts(docs: list[dict]) -> dict:
    """workload -> src_sha256 -> seed -> the exact work counts of one run."""
    out: dict = {}
    for doc in docs:
        prov = doc["provenance"]
        by_seed = out.setdefault(doc["workload"], {}).setdefault(prov["src_sha256"], {})
        by_seed[str(prov["seed"])] = work_counts(doc)
    return out


def trace_diff(labelled: list[tuple[str, dict]]) -> dict:
    """workload -> seed -> metric -> change count minus parent count."""
    counts = {(label, doc["workload"], str(doc["provenance"]["seed"])): work_counts(doc)
              for label, doc in labelled}
    out: dict = {}
    for (label, workload, seed), change in sorted(counts.items()):
        parent = counts.get(("parent", workload, seed))
        if label == "change" and parent is not None:
            out.setdefault(workload, {})[seed] = {
                m: change.get(m, 0) - parent.get(m, 0)
                for m in sorted(parent.keys() | change.keys())
                if change.get(m, 0) != parent.get(m, 0)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True,
                   help="number in the output name BENCH_<pr>.json")
    p.add_argument("checkouts", nargs="+", metavar="[LABEL=]CHECKOUT")
    args = p.parse_args(argv)
    runs, traces = [], []
    for arg in args.checkouts:
        label, _, checkout = arg.rpartition("=")
        runs += load_runs(label or checkout, checkout)
        traces += [(label or checkout, doc) for doc in load_docs(checkout, 1)]
    if not runs and not traces:
        print("error: no .perfbench_out/*-trace[01].json in the given checkouts",
              file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        bounds = json.load(fh)["end_to_end"]
    path = f"BENCH_{args.pr}.json"
    with open(path, "w") as fh:
        json.dump({"pr": args.pr, "workloads": summarise(runs),
                   "verdicts": verdicts(runs, bounds),
                   "trace_counts": trace_counts([doc for _, doc in traces]),
                   "trace_diff": trace_diff(traces)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
