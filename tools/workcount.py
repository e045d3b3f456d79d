"""Exact work counts of CLI commands: a perf measure that does not depend on
the machine's speed.

    python3 tools/workcount.py [--out FILE] [COMMAND ...]

Each COMMAND (one string, for example "induce 2I") runs in a fresh
interpreter through `spaceforms.cli.main`, on the checkout's src/.  The
child counts `CycloNum` additions and multiplications (`__radd__` and
`__rmul__` included, since `sum()` reaches them) and every call to an entry
point that `perfbench/tracer.py` wraps, using that tracer's own wrappers.
It also counts the calls of `exactnum.trace_form`, the integer kernel of
the rational inner products, which takes the place of their `CycloNum`
products, and of `exactnum.reduce_mod_p`, which maps a value to GF(241)
for the character tables' residues and the projector oracle.  The tracer
is imported read-only: no bytecode is written under perfbench/.

The output is one JSON object: "src_sha256", the digest of src/spaceforms
computed the way perfbench computes it, and "commands", command -> {"exit":
code, counter: count, ...}.  Counter names are `exactnum.add`,
`exactnum.mul`, `exactnum.trace`, `exactnum.reduce_mod_p`, `spectra.levels`
and `<layer>.<entry point>` (calls).
With no COMMAND, the default list below is counted.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")

COMMANDS = ("group 2I chartab", "induce 2I", "mckay 2I",
            "verify isospectral --nmax 60", "spectrum 2I --irrep 2s --nmax 20",
            "verify all --nmax 60")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spaceforms", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _count_here(command: str) -> dict:
    """Counts of one command in this (fresh) process."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    import tracer

    import spaceforms.cli
    trace = tracer.Tracer()
    tracer.install(trace)
    exactnum = sys.modules["spaceforms.exactnum"]
    for attr, counter in (("trace_form", "exactnum.trace"),
                          ("reduce_mod_p", "exactnum.reduce_mod_p")):
        kernel = getattr(exactnum, attr)
        counting = trace.counted(counter, kernel)
        for name, mod in list(sys.modules.items()):
            if name.startswith("spaceforms.") and getattr(mod, attr, None) is kernel:
                setattr(mod, attr, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = spaceforms.cli.main(command.split())
    counts = Counter(trace.counts)
    counts.update(span[2] for span in trace.spans)
    return {"exit": code, **dict(sorted(counts.items()))}


def count(command: str, hash_seed: int = 0) -> dict:
    """Counts of one command, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", command],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("commands", nargs="*")
    p.add_argument("--out", default=None, help="write the JSON here, not to stdout")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(_count_here(*args.commands)))
        return 0
    doc = {"src_sha256": src_digest(),
           "commands": {cmd: count(cmd)
                        for cmd in args.commands or COMMANDS}}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
