"""Library worker: one fresh interpreter that runs spaceforms operations.

    python3 perfbench/worker.py session --src SRC [--trace FILE] [--reference]
    python3 perfbench/worker.py probe --src SRC --trace FILE --work DIR
                                      [--parts cache,sum,verify]
    python3 perfbench/worker.py microbench --src SRC --seed N

Every mode first does the benchmark's set-up: import spaceforms from SRC
(refusing any other copy), then build 2T, 2O, 2I and their character tables.

`session` then prints one "ready" line and serves JSON requests, one per
line on stdin, answering each with one line on stdout.  Every request is
timed here, around the library call alone.

`probe` runs the set-up and then the layer probes named by --parts under
the tracer; `microbench` times CycloNum operations on seeded operands,
untraced.  Each prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import sys
from time import perf_counter, perf_counter_ns

import tracer as tracing

GROUPS = ("2T", "2O", "2I")
VERIFY_ITEMS = ("tables", "isospectral", "dimension", "relations", "matrices",
                "conjugations", "induced-matrices", "mckay", "sunada", "artin",
                "oracle", "torsion")
VERIFY_NMAX = 60
MICRO_BATCHES = 61         # operand microbench: batches, median taken over them
MICRO_PER_BATCH = 40       # operations timed together in one batch


class Worker:
    def __init__(self, src: str, trace: bool):
        sys.path.insert(0, src)
        import spaceforms
        import spaceforms.cli
        here = os.path.realpath(spaceforms.__file__)
        if os.path.dirname(os.path.dirname(here)) != os.path.realpath(src):
            raise SystemExit(f"spaceforms resolved to {here}, not under {src}")
        self.sf = spaceforms
        self.tracer = tracing.Tracer() if trace else None
        if self.tracer:
            tracing.install(self.tracer)
        self.groups = {n: spaceforms.groups.binary_polyhedral(n) for n in GROUPS}
        for G in self.groups.values():
            spaceforms.characters.character_table(G)

    def provenance(self) -> dict:
        import numpy
        return {"spaceforms_file": os.path.realpath(self.sf.__file__),
                "spaceforms_version": self.sf.__version__,
                "python": platform.python_version(),
                "numpy": numpy.__version__}

    def reference_data(self) -> dict:
        """Per group: class sizes, cos(theta) of each class and the irrep
        values as floats, for the float reference in the parent."""
        out = {}
        for name, G in self.groups.items():
            table = self.sf.characters.character_table(G)
            out[name] = {
                "order": len(G),
                "sizes": list(G.class_sizes),
                "cos": [G.elements[r].w.to_complex().real for r in G.class_reps],
                "irreps": {ir.name: {"spinor": ir.label.spinor,
                                     "values": [[z.real, z.imag] for z in
                                                (v.to_complex() for v in ir.char.values)]}
                           for ir in table},
                "lens_orders": {gen: G.cyclic_subgroup(gen).order
                                for gen in ("R", "S", "T", "RST")},
            }
        return out

    def run(self, req: dict, op_id: int) -> dict:
        fn = self.deep if req["op"] == "deep" else self.verify
        t0 = perf_counter()
        if self.tracer is None:
            out = fn(req)
        else:
            self.tracer.op_id = op_id
            name = f"verify.{req['item']}" if req["op"] == "verify" else "op.deep"
            out = self.tracer.call(name, fn, req)
            self.tracer.op_id = None
        out["ms"] = (perf_counter() - t0) * 1e3
        return out

    def deep(self, req: dict) -> dict:
        spectra = self.sf.spectra
        G = self.groups[req["group"]]
        target = G if req["kind"] == "irrep" else G.cyclic_subgroup(req["gen"])
        series = spectra.degeneracy_series(target, req["twist"], req["n_max"])
        W = spectra.SpectralWeight
        sums = [spectra.spectral_sum(series, w).value
                for w in (W.heat(req["heat_t"]), W.zeta(req["zeta_s"]),
                          W.counting(req["count_lambda"]))]
        return {"entries": list(series.entries), "sums": sums}

    def verify(self, req: dict) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.sf.cli.main(["verify", req["item"], "--nmax", str(VERIFY_NMAX),
                                   "--format", "json"])
        doc = json.loads(buf.getvalue())
        return {"rc": rc, "total": doc["total"],
                "results": [[r["item"], r["status"] == "pass"] for r in doc["results"]]}


def serve(args) -> None:
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr          # stray prints must not corrupt the protocol
    w = Worker(args.src, bool(args.trace))
    ready = {"ready": True, "provenance": w.provenance()}
    if args.reference:
        ready["reference"] = w.reference_data()
    proto.write(json.dumps(ready) + "\n")
    op_id = 0
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "exit":
            if w.tracer:
                w.tracer.dump(args.trace)
            proto.write('{"bye": true}\n')
            return
        op_id += 1
        proto.write(json.dumps(w.run(req, op_id)) + "\n")


# -- probe ------------------------------------------------------------------

def operand_pool(sf, groups) -> list:
    """Character-table values and spin-character values (2j <= 60) of the
    three groups: the operands the per-level inner products multiply."""
    pool = set()
    for G in groups.values():
        for ir in sf.characters.character_table(G):
            pool.update(ir.char.values)
        for two_j in range(61):
            pool.update(sf.characters.spin_character(G, two_j).values)
    return sorted(pool, key=repr)


def microbench(sf, groups, seed: int) -> dict:
    """Median ns per CycloNum op over MICRO_BATCHES batches of seeded operands."""
    rng = random.Random(seed)
    pool = operand_pool(sf, groups)
    units = [k for k in range(1, 120) if all(k % p for p in (2, 3, 5))]
    ops = {
        "mul": lambda a, b, k: a * b,
        "add": lambda a, b, k: a + b,
        "galois": lambda a, b, k: a.galois(k),
        "conjugate": lambda a, b, k: a.conjugate(),
    }
    out = {}
    for name, op in ops.items():
        per_op = []
        for _ in range(MICRO_BATCHES):
            args = [(rng.choice(pool), rng.choice(pool), rng.choice(units))
                    for _ in range(MICRO_PER_BATCH)]
            t0 = perf_counter_ns()
            for a, b, k in args:
                op(a, b, k)
            per_op.append((perf_counter_ns() - t0) / MICRO_PER_BATCH)
        per_op.sort()
        out[f"exactnum.{name}_ns"] = per_op[len(per_op) // 2]
    return out


def probe(args) -> None:
    """Traced set-up, then the layer probes named by --parts."""
    w = Worker(args.src, trace=True)
    parts = [p for p in args.parts.split(",") if p]
    result = {}
    if "cache" in parts:
        cache = os.path.join(args.work, "probe-cache")
        for name in GROUPS:
            w.sf.cli.resolve_group(name, cache)     # miss: build and save
            w.sf.cli.resolve_group(name, cache)     # hit: load
    if "sum" in parts:
        spectra = w.sf.spectra
        series = spectra.degeneracy_series(w.groups["2I"], "6s", VERIFY_NMAX)
        W = spectra.SpectralWeight
        for wt in (W.heat(0.05), W.zeta(2.5), W.counting(2000.0)):
            spectra.spectral_sum(series, wt)
    if "verify" in parts:
        result["verify"] = {item: w.run({"op": "verify", "item": item}, i + 1)
                            for i, item in enumerate(VERIFY_ITEMS)}
    w.tracer.dump(args.trace)
    print(json.dumps(result))


def bench_operands(args) -> None:
    w = Worker(args.src, trace=False)
    print(json.dumps(microbench(w.sf, w.groups, args.seed)))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["session", "probe", "microbench"])
    p.add_argument("--src", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--work", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parts", default="")
    args = p.parse_args()
    {"session": serve, "probe": probe, "microbench": bench_operands}[args.mode](args)


if __name__ == "__main__":
    main()
