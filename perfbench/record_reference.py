#!/usr/bin/env python3
"""Record the reference CSVs the cli-demos workload compares against.

    python3 perfbench/record_reference.py

Run from the root of a checkout. Writes one gzip file per (demo, parameter)
grid point to perfbench/reference/. The references pin the program's output
at the commit they were recorded from; re-record only when a change to the
CSV is intended, and say so in CHANGES.md.
"""

import gzip
import sys

import run


def main() -> int:
    calls = [("unit", [])]
    calls += [(demo, ["--k", repr(k)]) for demo in ("coulomb", "invr2") for k in run.CLI_K]
    calls += [("rn", ["--QoverM", repr(q)]) for q in run.CLI_Q]
    for demo, extra in calls:
        _, code, out, err = run.run_command(run.cli_command(demo, extra, traced=False))
        if code != 0:
            print(f"{demo} {extra}: exit {code}: {err}", file=sys.stderr)
            return 1
        path = run.reference_path(demo, extra)
        path.write_bytes(gzip.compress(out.encode(), compresslevel=9, mtime=0))
        print(f"wrote {path} ({len(out.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
