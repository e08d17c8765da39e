#!/usr/bin/env python
"""AA-cache study: reproduce the paper's Figure 6 comparison at
example scale.

Ages one all-SSD system per configuration (both caches / FlexVol only /
aggregate only / neither), measures the random-overwrite service
costs, and prints the latency-vs-throughput sweep — the same analysis
the full-size figure (``python -m repro bench --experiments fig6``)
runs, with its claims asserted in tests/bench/test_figures.py.

Run:  python examples/aa_cache_study.py
"""

from __future__ import annotations

import numpy as np

from repro import PolicyKind
from repro.bench import (
    NCLIENTS,
    build_aged_ssd_sim,
    fmt_table,
    measure_random_overwrite,
)

CONFIGS = {
    "both caches": (PolicyKind.CACHE, PolicyKind.CACHE),
    "FlexVol cache only": (PolicyKind.RANDOM, PolicyKind.CACHE),
    "aggregate cache only": (PolicyKind.CACHE, PolicyKind.RANDOM),
    "no AA caches": (PolicyKind.RANDOM, PolicyKind.RANDOM),
}


def main() -> None:
    results = {}
    for label, (agg_policy, vol_policy) in CONFIGS.items():
        print(f"aging + measuring: {label} ...")
        sim = build_aged_ssd_sim(
            aggregate_policy=agg_policy,
            vol_policy=vol_policy,
            n_groups=1,
            blocks_per_disk=65_536,  # small & quick for an example
            churn_factor=1.0,
            seed=21,
        )
        results[label] = measure_random_overwrite(sim, label, n_cps=15)

    print()
    print(
        fmt_table(
            ["config", "selected AA free", "SSD write amp", "CPU us/op",
             "device us/op", "peak ops/s"],
            [
                [r.label, r.agg_selected_free, r.write_amplification,
                 r.cpu_us_per_op, r.device_us_per_op, r.capacity_ops]
                for r in results.values()
            ],
            title="AA cache benefit (cf. paper section 4.1)",
        )
    )

    offered = np.linspace(1000, 10000, 10)
    rows = []
    for label, r in results.items():
        for p in r.curve(offered):
            rows.append([label, p.offered_per_client, p.achieved_per_client,
                         p.latency_ms])
    print()
    print(
        fmt_table(
            ["config", "offered/client", "achieved/client", "latency (ms)"],
            rows,
            title=f"Latency vs achieved throughput ({NCLIENTS} clients)",
        )
    )

    both = results["both caches"]
    none = results["no AA caches"]
    print(
        f"\nheadline: both caches sustain "
        f"{both.capacity_ops / none.capacity_ops - 1:+.1%} more load than none "
        f"(paper: ~+24% from the aggregate cache alone, +8% from the FlexVol cache)"
    )


if __name__ == "__main__":
    main()
