"""Shared benchmark harness: standard configurations, measurement
phases, and table formatting.

The figure units of :mod:`repro.bench.experiments` build the workload
and system each figure used (with the DESIGN.md substitutions) from
these pieces and render their tables with :func:`fmt_table`.  The
pytest studies under ``benchmarks/`` (ablations, cache overhead,
scaling) use them too; :func:`emit` prints their tables and keeps a
copy under ``benchmarks/results/`` so the tables survive pytest's
output capture.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.errors import BitmapError
from ..fs.aggregate import PolicyKind
from ..fs.filesystem import WaflSim
from ..sim.latency import LoadPoint, peak_throughput, system_curve
from ..workloads.aging import age_filesystem, reset_measurement_state
from ..workloads.oltp import OLTPWorkload
from ..workloads.random_overwrite import RandomOverwriteWorkload

__all__ = [
    "RESULTS_DIR",
    "ConfigResult",
    "build_aged_ssd_sim",
    "measure_random_overwrite",
    "set_bitmap_checks",
    "popcount_audit",
    "fmt_table",
    "emit",
    "CORES",
    "NCLIENTS",
]

#: Where benches persist their tables (pytest captures stdout).
RESULTS_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "benchmarks", "results")
)

#: The paper's midrange server: 20 Ivy Bridge cores (section 4.1).
CORES = 20
#: Clients in the latency-throughput sweeps.
NCLIENTS = 8


@dataclass
class ConfigResult:
    """Measured outcome of one configuration's measurement phase."""

    label: str
    cpu_us_per_op: float
    device_us_per_op: float
    agg_selected_free: float
    vol_selected_free: float
    aggregate_free: float
    write_amplification: float
    metafile_blocks_per_op: float
    full_stripe_fraction: float
    mean_chain_length: float

    @property
    def capacity_ops(self) -> float:
        """Bottleneck throughput (ops/s) under the 20-core model."""
        cpu_cap = CORES * 1e6 / self.cpu_us_per_op if self.cpu_us_per_op else float("inf")
        dev_cap = 1e6 / self.device_us_per_op if self.device_us_per_op else float("inf")
        return min(cpu_cap, dev_cap)

    def curve(self, offered: np.ndarray) -> list[LoadPoint]:
        return system_curve(
            self.cpu_us_per_op,
            self.device_us_per_op,
            offered,
            nclients=NCLIENTS,
            cores=CORES,
        )

    def peak(self, offered: np.ndarray) -> LoadPoint:
        return peak_throughput(self.curve(offered))


def _all_metafiles(sim: WaflSim) -> list:
    """Every bitmap metafile in the simulation: the volumes', then each
    physical instance's (RAID groups and object tiers alike)."""
    return [v.metafile for v in sim.vols.values()] + [
        fs.metafile for _, fs, _ in sim.store.physical_instances()
    ]


def set_bitmap_checks(sim: WaflSim, check: bool) -> None:
    """Toggle per-batch bitmap validation on every metafile.

    Benchmarks disable checking once aging completes (correctness is
    audited once at teardown via :func:`popcount_audit` instead of per
    batch) so the measurement phase times the allocation pipeline, not
    the validation.
    """
    for mf in _all_metafiles(sim):
        mf.bitmap.check = check


def popcount_audit(sim: WaflSim) -> None:
    """One final corruption check: every bitmap's recomputed popcount
    must equal its running allocated counter.  Raises
    :class:`~repro.common.errors.BitmapError` on divergence."""
    for mf in _all_metafiles(sim):
        bm = mf.bitmap
        pc = bm.popcount()
        if pc != bm.allocated_count:
            raise BitmapError(
                f"teardown audit: popcount {pc} != allocated counter "
                f"{bm.allocated_count} (nblocks={bm.nblocks})"
            )


def build_aged_ssd_sim(
    *,
    aggregate_policy: PolicyKind = PolicyKind.CACHE,
    vol_policy: PolicyKind = PolicyKind.CACHE,
    n_groups: int = 2,
    ndata: int = 4,
    blocks_per_disk: int = 131072,
    stripes_per_aa: int | None = None,
    erase_block_blocks: int = 512,
    program_us_per_block: float = 16.0,
    fill_fraction: float = 0.55,
    churn_factor: float = 2.0,
    seed: int = 42,
    unpriced_aging: bool = True,
) -> WaflSim:
    """The section 4.1 testbed: an all-SSD aggregate 'filled up to 55%
    and thoroughly fragmented by applying heavy random write traffic',
    with free-space defragmentation disabled (we implement none during
    measurement) and LUN-like volumes."""
    # program_us calibrated so the device side carries the same weight
    # it does on the paper's testbed (see EXPERIMENTS.md, Fig 6 notes).
    phys = n_groups * ndata * blocks_per_disk
    logical = int(phys * fill_fraction)
    spec = AggregateSpec(
        tiers=(
            TierSpec(
                label="ssd",
                media="ssd",
                raid="raid4",
                n_groups=n_groups,
                ndata=ndata,
                blocks_per_disk=blocks_per_disk,
                stripes_per_aa=stripes_per_aa or 0,
                erase_block_blocks=erase_block_blocks,
                program_us_per_block=program_us_per_block,
            ),
        ),
        volumes=(
            VolumeDecl("lun0", logical_blocks=logical // 2),
            VolumeDecl("lun1", logical_blocks=logical - logical // 2),
        ),
        policy=aggregate_policy.value,
        vol_policy=vol_policy.value,
    )
    sim = WaflSim.build(spec, seed=seed)
    # Aging CPs issue the exact same device writes either way; unpriced
    # mode skips the stripe classification and timing whose outputs the
    # reset below discards (see RAIDGroupRuntime.unpriced).
    for g in sim.store.groups:
        g.unpriced = unpriced_aging
    try:
        age_filesystem(sim, churn_factor=churn_factor, ops_per_cp=16384, seed=seed)
    finally:
        for g in sim.store.groups:
            g.unpriced = False
    reset_measurement_state(sim)
    set_bitmap_checks(sim, False)
    return sim


def measure_random_overwrite(
    sim: WaflSim,
    label: str,
    *,
    n_cps: int = 40,
    ops_per_cp: int = 8192,
    read_fraction: float = 0.0,
    blocks_per_op: int = 2,
    working_set_fraction: float = 1.0,
    seed: int = 777,
    audit_hook=None,
) -> ConfigResult:
    """Run the paper's random-overwrite measurement phase (optionally a
    mixed read/write OLTP-style load, as Figures 7/8 use) and collect
    every quantity section 4.1 reports.

    ``audit_hook(sim)`` — when given — runs after the sweep; callers
    pass :func:`repro.analysis.auditor.audit_sim` to get an audited
    benchmark without this package importing ``analysis`` (which sits
    above ``bench`` in the package DAG).
    """
    if read_fraction > 0.0:
        wl = OLTPWorkload(
            sim, ops_per_cp=ops_per_cp, read_fraction=read_fraction,
            blocks_per_write_op=blocks_per_op, seed=seed,
        )
    else:
        wl = RandomOverwriteWorkload(
            sim,
            ops_per_cp=ops_per_cp,
            blocks_per_op=blocks_per_op,
            working_set_fraction=working_set_fraction,
            seed=seed,
        )
    sim.run(wl, n_cps)
    popcount_audit(sim)
    if audit_hook is not None:
        audit_hook(sim)
    m = sim.metrics
    agg_sel = sim.store.selected_aa_free_fractions()
    vol_sel = np.concatenate(
        [v.selected_aa_free_fractions() for v in sim.vols.values()]
    )
    was = [
        d.write_amplification
        for g in sim.store.groups
        for d in g.data_devices
        if d.stats.host_blocks_written
    ]
    return ConfigResult(
        label=label,
        cpu_us_per_op=m.cpu_us_per_op,
        device_us_per_op=m.device_us_per_op,
        agg_selected_free=float(agg_sel.mean()) if agg_sel.size else 0.0,
        vol_selected_free=float(vol_sel.mean()) if vol_sel.size else 0.0,
        aggregate_free=1.0 - sim.utilization,
        write_amplification=float(np.mean(was)) if was else 1.0,
        metafile_blocks_per_op=m.metafile_blocks_per_op,
        full_stripe_fraction=m.full_stripe_fraction,
        mean_chain_length=m.mean_chain_length,
    )


def fmt_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width text table (the benches' figure surrogate)."""
    str_rows = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt_cell(c) -> str:
    if isinstance(c, float):
        if abs(c) >= 1000:
            return f"{c:,.0f}"
        return f"{c:.3f}"
    return str(c)


_emitted: set[str] = set()


def emit(name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/.

    The first emit for a name in a process truncates the file, so each
    benchmark run leaves one fresh copy of its tables.
    """
    # The figure harness intentionally streams its tables to stdout (the
    # experiments predate the CLI and are also run as modules).
    print("\n" + text)  # simlint: disable=E404
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    mode = "a" if name in _emitted else "w"
    _emitted.add(name)
    with open(path, mode, encoding="utf-8") as f:
        f.write(text + "\n\n")
