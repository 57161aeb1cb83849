"""``python -m bench``: run, compare or refresh the golden file.

Run one workload (what ``BENCHMARK.json``'s command does)::

    python -m bench --workload sampled --seed 3 --seconds 20 --trace 0

or every workload (``--workload all``, the default).  The last line of
standard output is the result object; ``--out FILE`` also appends the full
record (per-metric sample counts, digests, problems, shape check) to FILE
as one JSON line, which is what ``python -m bench compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench import compare, golden, run
from bench.workloads import WORKLOADS


def _run_seconds() -> float:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return float(declared["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--out", help="append the full record (JSON line)")
    parser.add_argument("--smoke", action="store_true",
                        help="miniature sizes for the tier-1 smoke test")
    parser.add_argument("--refresh-golden", action="store_true",
                        help="recompute bench/golden.json and exit")
    args = parser.parse_args(argv)
    seconds = _run_seconds() if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")

    run.check_checkout()
    with run.scratch_dir() as (tmp, scrubbed):
        if args.refresh_golden:
            os.environ["REPRO_ARTIFACT_DIR"] = str(tmp / "golden")
            golden.refresh()
            print(f"bench: wrote {golden.GOLDEN}")
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            # A child per workload keeps this process from importing the
            # program, so every workload's set-ups import it cold.
            record = run.fork_call(run.run, workload, args.seed, seconds,
                                   bool(args.trace), args.smoke, tmp,
                                   timeout=3600)["value"]
            record["env_scrubbed"] = scrubbed
            for problem in record["problems"]:
                print(f"bench: {workload}: {problem}", file=sys.stderr)
            shape = record.get("shape")
            if shape and not shape["ok"] and not args.smoke:
                print(f"bench: {workload} is off its layer: {shape['what']} "
                      f"is {shape['value']:.3f} < {shape['min']}",
                      file=sys.stderr)
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps(record, sort_keys=True) + "\n")
            print(json.dumps(run.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
