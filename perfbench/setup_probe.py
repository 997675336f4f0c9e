"""Set up one workload in a fresh interpreter, say ``ready``, tear down.

``common.measure_setup`` launches this script and times it from launch
to the ``ready`` line, so ``setup_s`` covers interpreter start, imports
and the workload's own set-up.  Usage::

    python3 perfbench/setup_probe.py <workload>
"""

import sys

from common import reap_children, require_source


def main() -> int:
    require_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]()
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.teardown()
        reap_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
