"""The spaceforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the library in the checkout's
src/ and refuses any other copy.  Workloads (see README.md next to this file):

  deep-spectrum   one library session, seeded stream of deep degeneracy
                  series queries (hundreds to thousands of levels each)
  verify-harness  fresh worker per pass, all 12 `verify` items at nmax 60
  cold-cli        one CLI process per operation, with no cache, a fresh
                  cache or the warm cache

Every output is checked (float, lens and Klein references; pinned verify
verdicts; golden CLI digests).  With --trace 0 the end-to-end metrics are
measured with tracing off; with --trace 1 the same operations are replayed
under the span tracer and the per-layer metrics are reported.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")     # scratch, removed after a run
OUT = os.path.join(ROOT, ".perfbench_out")       # result and trace files

sys.path.insert(0, BENCH)
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import GROUPS, VERIFY_ITEMS  # noqa: E402

PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
SETUP_REPEATS = 9          # set-ups per run; setup_s is their median
CLI_PROBE_REPEATS = 5
TAIL_BEYOND = 10

# Twists by name, fixed here so that the seed alone determines the inputs.
IRREPS = {
    "2T": {"nonspinor": ["1", "1'", "1''", "3"], "spinor": ["2s", "2s'", "2s''"]},
    "2O": {"nonspinor": ["1", "1'", "2", "3", "3'"], "spinor": ["2s", "2s'", "4s"]},
    "2I": {"nonspinor": ["1", "3", "3'", "4", "5"], "spinor": ["2s", "2s'", "4s", "6s"]},
}
LENS_ORDERS = {"2T": {"R": 4, "S": 6, "T": 6, "RST": 2},
               "2O": {"R": 4, "S": 6, "T": 8, "RST": 2},
               "2I": {"R": 4, "S": 6, "T": 10, "RST": 2}}
DEPTH_BAND = (200, 2000)

CLI_FAMILIES = (
    ("group", "{g}", "order"), ("group", "{g}", "classes"), ("group", "{g}", "chartab"),
    ("induce", "{g}"), ("induce", "{g}", "--gen", "R", "--r", "1"),
    ("spectrum", "{g}", "--gen", "T", "--r", "1", "--nmax", "20"),
    ("spectrum", "{g}", "--irrep", "2s", "--nmax", "20", "--format", "csv"),
    ("spectrum", "{g}", "--irrep", "2s'", "--nmax", "20", "--weight", "heat",
     "--param", "0.5"),
    ("mckay", "{g}"), ("mckay", "{g}", "--format", "dot"),
    ("mckay", "{g}", "--class-version"),
)
TORSION = (("torsion", "--q", "6", "--r", "3"), ("torsion", "--q", "4", "--r", "1"),
           ("torsion", "--q", "10", "--r", "3"))
CLI_MENU = [[w.format(g=g) for w in fam] for g in GROUPS for fam in CLI_FAMILIES] \
    + [list(t) for t in TORSION]
CLI_MODES = ("none", "fresh", "warm")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


# -- seeded operation streams -------------------------------------------------

def deep_ops(seed: int):
    """Endless stream of deep-spectrum rounds of 18 queries.  A round holds,
    for each group, one spinor and one non-spinor irrep twist and one lens
    twist on each of <R>, <S>, <T>, <RST>, so every spin-character cache of
    the session is used once per round.  DEPTH_BAND is cut into 18 slices.

    The cost of a level depends on the twist (sparse values such as the
    trivial twist multiply fast) and on the depth, so round k fixes both:
    stratum i gets slice (i + 5k) mod 18, the k-th irrep of its kind and
    lens index k mod q.  The cost mix of the first k rounds is then the same
    for every seed; with a seeded mix, the latency median of a few dozen
    queries moved by a third between seeds.  The seed draws the order within
    each round, the depth within its slice and the spectral weights."""
    rng = random.Random(seed)
    lo, hi = DEPTH_BAND
    strata = [(g, kind) for g in GROUPS
              for kind in ("nonspinor", "spinor", "R", "S", "T", "RST")]
    width = (hi - lo) / len(strata)
    for k in itertools.count():
        round_ = []
        for i, (g, kind) in enumerate(strata):
            n_max = round(lo + width * ((i + 5 * k) % len(strata) + rng.random()))
            op = {"op": "deep", "group": g, "n_max": n_max,
                  "heat_t": rng.uniform(0.001, 0.05), "zeta_s": rng.uniform(2.0, 4.0),
                  "count_lambda": float(rng.randint(n_max * n_max // 4, n_max * n_max))}
            if kind in LENS_ORDERS[g]:
                op.update(kind="lens", gen=kind, twist=k % LENS_ORDERS[g][kind])
            else:
                names = IRREPS[g][kind]
                op.update(kind="irrep", gen=None, twist=names[k % len(names)])
            round_.append(op)
        rng.shuffle(round_)
        yield round_


def verify_passes(seed: int):
    """Endless stream of passes, each the 12 verify items in seeded order."""
    rng = random.Random(seed)
    while True:
        items = list(VERIFY_ITEMS)
        rng.shuffle(items)
        yield items


def cli_ops(seed: int):
    """Endless stream of blocks of 9 (argv, mode): every (group, cache mode)
    once per block.  Block k gives slot i the menu entry (i + 4k) mod 12 of
    that group (the 11 group commands, then torsion), so the cost mix of the
    first k blocks is the same for every seed (see deep_ops).  The seed
    draws the order within each block and the torsion arguments."""
    rng = random.Random(seed)
    slots = [(g, mode) for g in GROUPS for mode in CLI_MODES]
    menu = len(CLI_FAMILIES) + 1
    for k in itertools.count():
        block = []
        for i, (g, mode) in enumerate(slots):
            j = (i + 4 * k) % menu
            argv = ([w.format(g=g) for w in CLI_FAMILIES[j]] if j < len(CLI_FAMILIES)
                    else list(rng.choice(TORSION)))
            block.append((argv, mode))
        rng.shuffle(block)
        yield block


def take(stream, n: int) -> list:
    """The first n rounds of a stream."""
    return [next(stream) for _ in range(n)]


def round_count(seconds: float, round_s: float) -> int:
    """Rounds in a run: a fixed number for a given --seconds, so that every
    run and every commit measures the same make-up of work.  `round_s` is a
    round's duration at the commit that defined the benchmark."""
    return max(1, round(seconds / round_s))


# -- processes ------------------------------------------------------------------

class Session:
    """A library worker process (worker.py session)."""

    def __init__(self, trace_file: str | None = None, reference_data: bool = False):
        cmd = [PY, os.path.join(BENCH, "worker.py"), "session", "--src", SRC]
        if trace_file:
            cmd += ["--trace", trace_file]
        if reference_data:
            cmd.append("--reference")
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=ENV, cwd=ROOT)
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait(timeout=30)
            raise BenchError(f"worker exited with code {code}")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.request({"op": "exit"})
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdin, self.proc.stdout):
            if fh and not fh.closed:
                fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.close()
        else:
            self.kill()


def run_child(cmd: list[str], timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, env=ENV, cwd=ROOT, timeout=timeout)


def cli_argv(argv: list[str], mode: str, fresh_dir: str, warm_dir: str,
             trace_file: str | None = None) -> list[str]:
    cache = {"none": [], "fresh": ["--cache", fresh_dir], "warm": ["--cache", warm_dir]}[mode]
    launcher = ([PY, os.path.join(BENCH, "traced_cli.py"), trace_file] if trace_file
                else [PY, "-m", "spaceforms.cli"])
    return launcher + cache + argv


def digest(stdout: bytes, code: int) -> str:
    return f"{hashlib.sha256(stdout).hexdigest()}:{code}"


# -- workloads ------------------------------------------------------------------
# Workload.run measures round_count whole rounds of the seeded stream, or
# replays a given list of rounds.  Unless it replays, it also times
# SETUP_REPEATS set-ups between the operations (see setup_slots).  It returns
# the per-op records (latency_ms, error), the rounds it ran, the timed seconds
# (the sum of the operations' wall times), the work units done, and the
# set-up times.

def setup_slots(rounds: list) -> Counter:
    """Operation index -> set-ups to time just before that operation:
    SETUP_REPEATS in all, spread evenly over the run.  The machine's speed
    drifts in stretches of seconds (one set-up took 0.6 s in some stretches
    and 0.9 s in others), so set-ups made back to back land in one stretch;
    spread out, they see the same stretches as the timed operations."""
    n = sum(len(r) for r in rounds)
    return Counter(k * n // SETUP_REPEATS for k in range(SETUP_REPEATS))


def library_setup() -> float:
    """Set-up time of a fresh worker, closed once it is ready."""
    with Session() as s:
        return s.setup_s


def op_record(latency_ms: float, error: str | None) -> dict:
    return {"latency_ms": latency_ms, "error": error}


def check_verify(golden: dict, item: str, res: dict) -> str | None:
    """None if the item's verdicts equal the pinned set, else a reason."""
    want = golden["verify"][item]
    if res["results"] != want:
        return f"verify {item}: verdicts differ from the pinned set"
    if res["total"] != len(want):
        return f"verify {item}: total {res['total']} != {len(want)}"
    if res["rc"] != (0 if all(ok for _, ok in want) else 1):
        return f"verify {item}: exit code {res['rc']}"
    return None


class Workload:
    def __init__(self, seed: int, seconds: float, golden: dict):
        self.seed, self.seconds, self.golden = seed, seconds, golden


class DeepSpectrum(Workload):
    name = "deep-spectrum"
    round_s = 6.0
    unit_name = "levels_per_s"
    unit = "levels/s"

    def run(self, replay: list | None = None, trace_file: str | None = None) -> dict:
        rounds = replay or take(deep_ops(self.seed), round_count(self.seconds, self.round_s))
        slots = Counter() if replay else setup_slots(rounds)
        done, executed, setup, timed = [], [], [], 0.0
        with Session(trace_file, reference_data=True) as sess:
            ref = sess.ready["reference"]
            check_irrep_names(ref)
            for round_ in rounds:
                for op in round_:
                    setup += [library_setup() for _ in range(slots[len(done)])]
                    t0 = perf_counter()
                    res = sess.request(op)
                    timed += perf_counter() - t0
                    done.append((op, res))
                executed.append(round_)
        records = [op_record(res["ms"], reference.check_deep(op, res, ref))
                   for op, res in done]
        return {"ops": records, "rounds": executed, "timed_s": timed,
                "units": sum(op["n_max"] + 1 for op, _ in done), "setup": setup,
                "provenance": sess.ready["provenance"]}


class VerifyHarness(Workload):
    name = "verify-harness"
    round_s = 7.0
    unit_name = "checks_per_s"
    unit = "checks/s"

    def run(self, replay: list | None = None, trace_file: str | None = None) -> dict:
        rounds = replay or take(verify_passes(self.seed),
                                round_count(self.seconds, self.round_s))
        slots = Counter() if replay else setup_slots(rounds)
        records, executed, setup, timed, units = [], [], [], 0.0, 0
        prov = None
        for items in rounds:
            tf = f"{trace_file}.{len(executed)}" if trace_file else None
            with Session(tf) as sess:
                prov = sess.ready["provenance"]
                for item in items:
                    setup += [library_setup() for _ in range(slots[len(records)])]
                    t0 = perf_counter()
                    res = sess.request({"op": "verify", "item": item})
                    timed += perf_counter() - t0
                    units += res["total"]
                    records.append(op_record(res["ms"], check_verify(self.golden, item, res)))
            executed.append(items)
        return {"ops": records, "rounds": executed, "timed_s": timed, "units": units,
                "setup": setup, "provenance": prov}


class ColdCli(Workload):
    name = "cold-cli"
    round_s = 4.0
    unit_name = "invocations_per_s"
    unit = "1/s"

    def populate(self, cache: str) -> float:
        """The write path: the CLI fills an empty cache with 2T, 2O, 2I."""
        t0 = perf_counter()
        for g in GROUPS:
            p = run_child([PY, "-m", "spaceforms.cli", "--cache", cache, "group", g, "order"])
            if digest(p.stdout, p.returncode) != self.golden["cli"][f"group {g} order"]:
                raise BenchError(f"populating the cache: group {g} order gave "
                                 f"{p.stdout!r} (exit {p.returncode})")
        elapsed = perf_counter() - t0
        missing = [g for g in GROUPS if not os.path.isfile(os.path.join(cache, f"{g}.json"))]
        if missing:
            raise BenchError(f"the CLI did not write {missing} to its cache")
        return elapsed

    def check(self, argv, mode, proc, fresh) -> str | None:
        if digest(proc.stdout, proc.returncode) != self.golden["cli"][" ".join(argv)]:
            return (f"{' '.join(argv)} [{mode}]: output or exit code "
                    f"{proc.returncode} differs from the golden digest")
        if mode == "fresh" and argv[0] != "torsion" and not os.path.isfile(
                os.path.join(fresh, f"{argv[1]}.json")):
            return f"{' '.join(argv)} [fresh]: no cache file written"
        return None

    def run(self, replay: list | None = None, trace_file: str | None = None) -> dict:
        rounds = replay or take(cli_ops(self.seed), round_count(self.seconds, self.round_s))
        # a replay still needs the warm cache before its first operation
        slots = Counter({0: 1}) if replay else setup_slots(rounds)
        records, executed, setup, timed = [], [], [], 0.0
        warm = os.path.join(WORK, "warm-0")
        for block in rounds:
            for argv, mode in block:
                for _ in range(slots[len(records)]):
                    setup.append(self.populate(os.path.join(WORK, f"warm-{len(setup)}")))
                fresh = os.path.join(WORK, f"fresh-{len(records)}")
                tf = f"{trace_file}.{len(records)}" if trace_file else None
                t0 = perf_counter()
                proc = run_child(cli_argv(argv, mode, fresh, warm, tf))
                wall = perf_counter() - t0
                timed += wall
                records.append(op_record(wall * 1e3, self.check(argv, mode, proc, fresh)))
                shutil.rmtree(fresh, ignore_errors=True)
            executed.append(block)
        return {"ops": records, "rounds": executed, "timed_s": timed, "units": len(records),
                "setup": setup, "provenance": cli_provenance()}


WORKLOADS = {w.name: w for w in (DeepSpectrum, VerifyHarness, ColdCli)}


def check_irrep_names(ref: dict) -> None:
    for g, kinds in IRREPS.items():
        want = sorted(kinds["nonspinor"] + kinds["spinor"])
        if sorted(ref[g]["irreps"]) != want:
            raise BenchError(f"{g} irreps {sorted(ref[g]['irreps'])} != {want}")
        for gen, q in LENS_ORDERS[g].items():
            if ref[g]["lens_orders"][gen] != q:
                raise BenchError(f"{g}.<{gen}> has order {ref[g]['lens_orders'][gen]}")


def cli_provenance() -> dict:
    code = ("import json, os, platform, numpy, spaceforms; print(json.dumps("
            "{'spaceforms_file': os.path.realpath(spaceforms.__file__), "
            "'spaceforms_version': spaceforms.__version__, "
            "'python': platform.python_version(), 'numpy': numpy.__version__}))")
    p = run_child([PY, "-c", code])
    if p.returncode != 0:
        raise BenchError(f"cannot import spaceforms: {p.stderr.decode()[-300:]}")
    prov = json.loads(p.stdout)
    if os.path.dirname(os.path.dirname(prov["spaceforms_file"])) != os.path.realpath(SRC):
        raise BenchError(f"spaceforms resolved to {prov['spaceforms_file']}, not {SRC}")
    return prov


# -- metrics --------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, operations beyond it) of the highest percentile
    with TAIL_BEYOND operations beyond it; the maximum when there are too
    few."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def error_rate(ops: list[dict]) -> float:
    return sum(1 for r in ops if r["error"]) / len(ops)


def end_to_end(wl, res: dict, peak_rss_kb: int) -> tuple[dict, list[str]]:
    lat = [r["latency_ms"] for r in res["ops"]]
    n = len(lat)
    tail_ms, pct, beyond = tail(lat)
    work = res["units"] / res["timed_s"]
    metrics = {
        "setup_s": (statistics.median(res["setup"]), "s", len(res["setup"])),
        "work_per_s": (work, "1/s", n),
        "op_p50_ms": (statistics.median(lat), "ms", n),
        "op_tail_ms": (tail_ms, "ms", n),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB", 1),
    }
    lines = [f"{k:<22} {v:>14.6g} {u:<9} n={c}" for k, (v, u, c) in metrics.items()]
    lines[3] += f"  (p{pct:.1f}: {beyond} operations beyond it)"
    lines.insert(2, f"{'  = ' + wl.unit_name:<22} {work:>14.6g} {wl.unit:<9} "
                    f"({res['units']} in {res['timed_s']:.3f} s)")
    lines.append(f"{'error_rate':<22} {error_rate(res['ops']):>14.6g} {'ratio':<9} n={n}")
    return {k: (v, u) for k, (v, u, _) in metrics.items()}, lines


def probe_parts_for(layer: dict) -> dict:
    """metric -> probe part that measures it when the workload does not."""
    parts = {}
    for m in layer:
        if m.startswith(("exactnum.", "groups.build", "characters.")):
            parts[m] = "setup"
        elif m.startswith("groups."):
            parts[m] = "cache"
        elif m in ("spectra.levels", "spectra.series_self_s", "spectra.ip_per_level",
                   "spectra.sum_s"):
            parts[m] = "sum"
        else:
            parts[m] = "verify"
    return parts


def layer_metrics(stats: dict, counts) -> dict:
    """Per-layer metrics from span statistics and counters.

    Counts are the traced work's own, 0 where it made none.  A time or a
    ratio is None (and then measured on the layer probe) where the traced
    work never called the entry point that defines it: a time of code never
    run, or a ratio with a zero base, says nothing about the layer."""
    def st(name, key="incl_s"):
        return stats.get(name, {}).get(key, 0)

    def calls(name):
        return st(name, "calls")

    def layer_calls(layer):
        return sum(s["calls"] for n, s in stats.items() if n.startswith(layer + "."))

    def layer_self(layer):
        return sum(s["self_s"] for n, s in stats.items() if n.startswith(layer + "."))

    def when(cond, value):
        return value if cond else None

    levels = counts["spectra.levels"]
    loads, saves = calls("groups.load_group"), calls("groups.save_group")
    ip = calls("characters.inner_product")
    oracle = calls("spectra.oracle_projector_degeneracy")
    out = {
        "exactnum.mul_calls": counts["exactnum.mul"],
        "exactnum.add_calls": counts["exactnum.add"],
        "groups.build_s": when(calls("groups.build_binary_polyhedral"),
                               st("groups.build_binary_polyhedral")),
        "groups.load_s": when(loads, st("groups.load_group")),
        "groups.save_s": when(saves, st("groups.save_group")),
        "groups.cache_hit_ratio": when(loads + saves, loads / max(1, loads + saves)),
        "characters.table_s": when(calls("characters.character_table"),
                                   st("characters.character_table")),
        "characters.spin_character_calls": calls("characters.spin_character"),
        "characters.inner_product_calls": ip,
        "characters.inner_product_s": when(ip, st("characters.inner_product")),
        "spectra.levels": levels,
        "spectra.series_self_s": when(levels, st("spectra.degeneracy_series", "self_s")
                                      + st("spectra.degeneracy", "self_s")),
        "spectra.ip_per_level": when(levels, ip / max(1, levels)),
        "spectra.sum_s": when(calls("spectra.spectral_sum"), st("spectra.spectral_sum")),
        "spectra.oracle_s": when(oracle, st("spectra.oracle_projector_degeneracy")),
        "spectra.oracle_calls": oracle,
        "induction.self_s": when(layer_calls("induction"), layer_self("induction")),
        "induction.induce_calls": calls("induction.induce_character"),
        "induction.monomial_verify_s": when(calls("induction.verify_monomial_rep"),
                                            st("induction.verify_monomial_rep")),
        "mckay.self_s": when(layer_calls("mckay"), layer_self("mckay")),
    }
    for item in VERIFY_ITEMS:
        out[f"verify.{item}_s"] = when(calls(f"verify.{item}"),
                                       st(f"verify.{item}") / max(1, calls(f"verify.{item}")))
    return out


def cli_probes() -> dict:
    """Cold-start costs of a fresh interpreter, medians of CLI_PROBE_REPEATS."""
    timed_import = ("import time; t = time.perf_counter(); import {m}; "
                    "print(time.perf_counter() - t)")
    interp, imp, np_imp = [], [], []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = perf_counter()
        run_child([PY, "-c", "pass"])
        interp.append(perf_counter() - t0)
        for out, mod in ((imp, "spaceforms.cli"), (np_imp, "numpy")):
            p = run_child([PY, "-c", timed_import.format(m=mod)])
            if p.returncode:
                raise BenchError(f"import {mod} failed")
            out.append(float(p.stdout))
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imp),
            "cli.numpy_import_s": statistics.median(np_imp)}


def traced(wl, res: dict, trace_dir: str) -> tuple[dict, dict, list]:
    """Replay the untraced run's operations under the tracer, fill what the
    workload does not reach from the layer probe, add the operand
    microbench and the cold-start probes."""
    os.makedirs(trace_dir, exist_ok=True)
    for old in glob.glob(os.path.join(trace_dir, "*.json*")):
        os.remove(old)
    replay = wl.run(replay=res["rounds"], trace_file=os.path.join(trace_dir, "replay.json"))
    per_process, counts = tracing.load(sorted(glob.glob(os.path.join(trace_dir, "replay.json*"))))
    layer = layer_metrics(tracing.span_stats(per_process), counts)
    parts = probe_parts_for(layer)
    missing = sorted({parts[m] for m, v in layer.items() if v is None} - {"setup"})
    probe_file = os.path.join(trace_dir, "probe.json")
    p = run_child([PY, os.path.join(BENCH, "worker.py"), "probe", "--src", SRC,
                   "--trace", probe_file, "--work", WORK, "--parts", ",".join(missing)],
                  timeout=170)
    if p.returncode:
        raise BenchError(f"layer probe failed: {p.stderr.decode()[-500:]}")
    probe_out = json.loads(p.stdout)
    for item, vres in probe_out.get("verify", {}).items():
        err = check_verify(wl.golden, item, vres)
        if err:
            raise BenchError(f"layer probe: {err}")
    probe_spans, probe_counts = tracing.load([probe_file])
    probe_layer = layer_metrics(tracing.span_stats(probe_spans), probe_counts)
    from_probe = [m for m, v in layer.items() if v is None]
    for m in from_probe:
        layer[m] = probe_layer[m]
        if layer[m] is None:
            raise BenchError(f"no traced work measured {m}")
    p = run_child([PY, os.path.join(BENCH, "worker.py"), "microbench", "--src", SRC,
                   "--seed", str(wl.seed)])
    if p.returncode:
        raise BenchError(f"operand microbench failed: {p.stderr.decode()[-500:]}")
    layer.update(json.loads(p.stdout))
    layer.update(cli_probes())
    layer["trace.overhead"] = replay["timed_s"] / res["timed_s"]
    return layer, replay, from_probe


# -- main -------------------------------------------------------------------------

def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop in this process: a record of
    how fast the machine ran, kept in the provenance and used by no metric."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def provenance(seed: int, prov: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        commit = p.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spaceforms", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": prov["numpy"],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "seed": seed, "spaceforms_file": prov["spaceforms_file"],
            "spaceforms_version": prov["spaceforms_version"]}


def load_golden() -> dict:
    with open(os.path.join(BENCH, "golden.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spaceforms", "__init__.py")):
        print(f"error: no spaceforms package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.seconds, load_golden())
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(OUT, exist_ok=True)
    try:
        # byte-compile first, so that no run pays for it and all see the same state
        if run_child([PY, "-m", "compileall", "-q", SRC]).returncode:
            raise BenchError("cannot byte-compile src/")
        calibration = [calibration_ms()]
        res = wl.run()
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        calibration.append(calibration_ms())
        prov = dict(provenance(args.seed, res["provenance"]), calibration_ms=calibration)
        e2e, lines = end_to_end(wl, res, rss_kb)
        ops = res["ops"]
        doc = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
               "provenance": prov, "end_to_end": {k: v for k, (v, _) in e2e.items()},
               "summary": lines,
               "op_latencies_ms": [r["latency_ms"] for r in ops],
               "errors": [r["error"] for r in ops if r["error"]]}
        metrics = e2e
        if args.trace:
            trace_dir = os.path.join(OUT, f"trace-{wl.name}-{args.seed}")
            layer, replay, from_probe = traced(wl, res, trace_dir)
            ops = ops + replay["ops"]
            units = per_layer_units()
            metrics = {k: (layer[k], units[k]) for k in units}
            doc.update(per_layer=layer, from_probe=from_probe, trace_dir=trace_dir,
                       errors=[r["error"] for r in ops if r["error"]])
            lines = [f"{k:<34} {v:>14.6g} {units[k]}" for k, v in layer.items()]
            lines.append(f"(from the layer probe: {', '.join(from_probe) or 'none'})")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = sum(1 for r in ops if r["error"])
    with open(os.path.join(OUT, f"{wl.name}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    for err in doc["errors"][:5]:
        print(f"# FAILED {err}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
