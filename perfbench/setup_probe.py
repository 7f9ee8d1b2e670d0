"""Set up one workload in a fresh interpreter, print "ready" and exit.

``run.py`` times the interval from starting this process to "ready" as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads

if __name__ == "__main__":
    try:
        workloads.prepare(sys.argv[1], int(sys.argv[2]))
    except workloads.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
    print("ready", flush=True)
