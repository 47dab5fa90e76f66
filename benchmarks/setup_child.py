"""One fresh process per set-up sample.

    python3 benchmarks/setup_child.py WORKLOAD SEED SCRATCH_DIR

Imports psgdkit, builds the workload (problem, RunConfig, preconditioner) and
prints "ready": the parent times process start to that line as set-up. Then
it runs one pass of the workload and prints its peak resident memory.
"""

import json
import resource
import sys

from bootstrap import import_psgdkit, pin_threads


def main():
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    pin_threads()
    import_psgdkit()
    import workloads
    jobs = workloads.WORKLOADS[name].prepare(seed, scratch)
    print("ready", flush=True)
    for job in jobs:
        job.execute()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"peak_rss_mb": rss_kb / 1024.0}))


if __name__ == "__main__":
    main()
