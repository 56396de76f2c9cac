#!/usr/bin/env python3
"""Record reference outputs of one workload for a range of seeds.

    python3 perfbench/record.py --workload tab-contrast-1e6 --seeds 0-31

For each seed the inputs are generated and one operation runs; its output
must pass the workload's truth check, and its numbers become the reference
that run.py holds later runs of that seed to. Record on a known-good commit
only. Entries of the named workload and seeds are replaced in
references.json; other entries are kept.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys
import tempfile

import bootstrap

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-31")
    args = p.parse_args(argv)
    bootstrap.pin_environment()
    bootstrap.add_source_path()
    import workloads

    work = workloads.WORKLOADS[args.workload]
    os.makedirs(bootstrap.WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"record-{work.name}-", dir=bootstrap.WORK)
    records = {}
    try:
        for seed in args.seeds:
            rec = work.summarize(work.operation(work.generate(seed, scratch)))
            problems = work.check(rec)
            if problems:
                print(f"seed {seed}: {problems}", file=sys.stderr)
                return 1
            # Digests pin byte identity within one run only; a reference must
            # survive fields added to a report.
            records[str(seed)] = {k: v for k, v in rec.items() if not isinstance(v, str)}
            print(f"{work.name} seed {seed}: {records[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with open(os.path.join(HERE, "references.json"), "r+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)   # several workloads may be recorded at once
        refs = json.load(fh)
        refs.setdefault(work.name, {}).update(records)
        fh.seek(0)
        fh.truncate()
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
