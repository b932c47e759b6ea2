#!/usr/bin/env python3
"""Write the inputs of one benchmark op from a run record and print how to replay it.

    python3 bench/replay.py RECORD OP DIR

RECORD is a run record written by bench/run.py, OP the op's stream position
(the "op" field of its samples and problems), DIR the directory that receives
the input files in the lieaff formats.  The printed lieaff commands, run from
DIR, repeat the op through the command line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def write(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    record = json.loads(Path(argv[0]).read_text())
    inputs = record["inputs"]
    entry = inputs["ops"].get(argv[1])
    if entry is None:
        print(f"op {argv[1]} was not run in this record", file=sys.stderr)
        return 2
    out = Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    base = inputs["bases"].get(entry["base"])
    if base is not None:
        write(out / f"{entry['base']}.algebra.json", base["algebra"])
        write(out / f"{entry['base']}.theta.json", base["theta"])
    if "lift" in entry:
        write(out / "lift.json", entry["lift"])
    if "algebra" in entry:
        write(out / f"{entry['base']}.json", entry["algebra"])
    print(f"# {record['workload']} seed {record['seed']} op {argv[1]}: {entry['kind']}")
    if "note" in entry:
        print(f"# {entry['note']}")
    for command in entry.get("commands", [entry.get("command")]):
        print(f"(cd {out} && {' '.join(command)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
