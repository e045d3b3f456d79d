"""Golden guard: every pinned CLI document and verify verdict is unchanged.

perfbench/golden.json pins the stdout digest and exit code of 36 CLI
commands and the verdict of every verify check; the README examples it
lacks are pinned here.  Each command runs in-process, so a change that
alters any output byte fails tier-1 and not only the benchmark.  The
library names that perfbench's tracer wraps are checked here as well.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

import pytest

from spaceforms import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")
GOLDEN = os.path.join(PERFBENCH, "golden.json")

README_DIGESTS = {
    "group Z6 chartab":
        "cd429d2f4e2e5102a47b2afee5dc1992c4cf26c51644becab4a10604b4b6f160:0",
    "spectrum 2I --irrep 4s --nmax 20 --format csv":
        "ca864deea92c1ba8fd93f63bae1a7b5eacd1e127cd7164befadb30d83ad3b1c7:0",
    "verify all --nmax 60":
        "05299628f1553a5980c54b4aa78bab466d168b2894595eae73aad2a301737d4b:1",
}


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def _digest(cmd: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cmd.split())
    return f"{hashlib.sha256(buf.getvalue().encode()).hexdigest()}:{code}"


CLI_DIGESTS = {**_golden()["cli"], **README_DIGESTS}


@pytest.mark.parametrize("cmd", sorted(CLI_DIGESTS))
def test_cli_digest(cmd):
    assert _digest(cmd) == CLI_DIGESTS[cmd]


def test_verify_verdicts():
    pinned = [tuple(v) for item in _golden()["verify"].values() for v in item]
    got = [(i.key, i.passed) for i in cli._verify_items("all", 60, None)]
    assert len(got) == len(pinned) == 213
    assert dict(got) == dict(pinned)


def test_perfbench_entry_points_exist(monkeypatch):
    # the tracer wraps these names on the modules `import spaceforms.cli`
    # loads, and counts these CycloNum methods; a missing one breaks it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # read-only
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.ENTRY_POINTS.items()
               for name in names
               if not callable(getattr(sys.modules.get(f"spaceforms.{layer}"), name, None))]
    assert missing == []
    cyclo = sys.modules["spaceforms.exactnum"].CycloNum
    assert set(tracer.COUNTED) <= set(vars(cyclo))
