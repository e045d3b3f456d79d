"""Record golden.json: the pinned verify verdicts and the CLI output digests.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known to be right.  The
benchmark compares every run against this file, so re-record it only in a
change that means to alter the library's output, and say so.
"""

import json
import os

import run


def main() -> None:
    golden = {"verify": {}, "cli": {}}
    with run.Session() as sess:
        for item in run.VERIFY_ITEMS:
            res = sess.request({"op": "verify", "item": item})
            golden["verify"][item] = res["results"]
    for argv in run.CLI_MENU:
        p = run.run_child([run.PY, "-m", "spaceforms.cli"] + argv)
        golden["cli"][" ".join(argv)] = run.digest(p.stdout, p.returncode)
    with open(os.path.join(run.BENCH, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    checks = sum(len(v) for v in golden["verify"].values())
    fails = [k for v in golden["verify"].values() for k, ok in v if not ok]
    print(f"{checks} verify checks, failing by design: {fails}; "
          f"{len(golden['cli'])} CLI digests")


if __name__ == "__main__":
    main()
