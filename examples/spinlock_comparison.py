#!/usr/bin/env python3
"""Busy-waiting detection across ten spinlock algorithms (Figure 13).

Runs the multi-stage spin pipeline with each spinlock at 4x thread
oversubscription on the vanilla kernel, the KVM+PLE kernel, and the BWD
kernel.  PLE only sees PAUSE-based loops on vCPUs and does not relieve
thread-level oversubscription; BWD identifies every implementation from
LBR/PMC signatures and rescues all of them.

Run:  python examples/spinlock_comparison.py
"""

from repro import optimized_config, ple_config, vanilla_config
from repro.runners.full_report import SPINLOCK_ORDER
from repro.workloads.pipeline import spin_pipeline_run

STAGES = 480


def main() -> None:
    print("Spin pipeline, 8 simulated cores (times in ms)")
    print(
        f"{'lock':>12} {'8T':>8} {'32T':>9} {'32T+PLE':>9} {'32T+BWD':>9}"
        f" {'BWD/8T':>7}"
    )
    for alg in SPINLOCK_ORDER:
        base = spin_pipeline_run(
            vanilla_config(cores=8), alg, 8, total_stages=STAGES
        )
        over = spin_pipeline_run(
            vanilla_config(cores=8), alg, 32, total_stages=STAGES
        )
        ple = spin_pipeline_run(
            ple_config(cores=8), alg, 32, total_stages=STAGES
        )
        bwd = spin_pipeline_run(
            optimized_config(cores=8, vb=False, bwd=True),
            alg, 32, total_stages=STAGES,
        )
        print(
            f"{alg:>12} {base.duration_ns / 1e6:>8.1f}"
            f" {over.duration_ns / 1e6:>9.1f}"
            f" {ple.duration_ns / 1e6:>9.1f}"
            f" {bwd.duration_ns / 1e6:>9.1f}"
            f" {bwd.duration_ns / base.duration_ns:>6.2f}x"
        )
    print()
    print(
        "Every algorithm collapses when oversubscribed under vanilla or\n"
        "PLE; busy-waiting detection brings 32 threads back near the\n"
        "8-thread baseline without touching a line of application code."
    )


if __name__ == "__main__":
    main()
