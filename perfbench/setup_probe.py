"""Time-to-first-search probe for the search workloads.

    python3 perfbench/setup_probe.py SETTING BANDWIDTH_GBPS GROUP_SIZE GROUP_SEED

Does what a fresh process must do before its first search can run (import,
platform, workload generation, Job Analysis Table) and prints ``ready``;
the caller times the process from launch to that line.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.optimizers  # noqa: E402,F401 — M3E.search imports it on first use
from repro.accelerator import build_setting  # noqa: E402
from repro.core.framework import M3E  # noqa: E402
from repro.workloads.benchmark import TaskType, build_task_workload  # noqa: E402


def main(argv: list) -> int:
    setting, bandwidth_gbps, group_size, group_seed = argv
    platform = build_setting(setting, float(bandwidth_gbps))
    group = build_task_workload(
        TaskType.MIX,
        group_size=int(group_size),
        num_groups=1,
        seed=int(group_seed),
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    M3E(platform).analyze(group)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
