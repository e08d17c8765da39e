"""Work units and table renderers for every evaluation figure.

Each figure of the paper's section 4 splits into per-unit functions
(``run_fig6_config``, ``run_fig7``, ``run_fig10_size``, ...) that build
the workload and system one configuration used and measure the
quantities the figure reports; :mod:`repro.bench.runner` schedules
them as ``repro bench`` units.  The ``figN_tables`` renderers turn an
experiment's unit results (``{unit label: {"metrics", "timing"}}``, the
runner's per-unit documents) back into the figure's text tables plus
its one-line headline, and :func:`figure_tables` renders every figure
in a trajectory document.  ``tests/bench/test_figures.py`` checks the
paper's shape claims on the same documents.

``quick=True`` shrinks the configurations for interactive use; the
shipped EXPERIMENTS.md numbers come from the full-size runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..core import aa_size_for_smr
from ..devices.smr import SMRConfig
from ..fs import (
    CPBatch,
    PolicyKind,
    WaflSim,
    export_topaa,
    simulate_mount,
)
from ..raid import RAIDGeometry
from ..sim import system_curve
from ..workloads import OLTPWorkload, SequentialWriteWorkload, fill_volumes
from ..workloads.aging import reset_measurement_state
from .harness import (
    CORES,
    NCLIENTS,
    ConfigResult,
    build_aged_ssd_sim,
    fmt_table,
    measure_random_overwrite,
    popcount_audit,
    set_bitmap_checks,
)

__all__ = [
    "FIGURE_TABLES",
    "experiment_units",
    "figure_tables",
    "config_results",
    "FIG6_CONFIGS",
    "FIG6_OFFERED",
    "run_fig6_config",
    "fig6_tables",
    "Fig7Result",
    "run_fig7",
    "fig7_tables",
    "FIG8_SIZINGS",
    "FIG8_ERASE_UNIT",
    "FIG8_OFFERED",
    "run_fig8_config",
    "fig8_tables",
    "FIG9_BLOCKS_PER_DISK",
    "FIG9_ZONE_BLOCKS",
    "FIG9_OFFERED",
    "FIG9_SIZINGS",
    "run_fig9_config",
    "fig9_curves",
    "fig9_tables",
    "run_fig10_size",
    "run_fig10_count",
    "fig10_tables",
]

# ----------------------------------------------------------------------
# Figure 6: AA cache benefit (section 4.1)
# ----------------------------------------------------------------------

FIG6_CONFIGS: dict[str, tuple[PolicyKind, PolicyKind]] = {
    "both caches": (PolicyKind.CACHE, PolicyKind.CACHE),
    "FlexVol AA cache": (PolicyKind.RANDOM, PolicyKind.CACHE),
    "Aggregate AA cache": (PolicyKind.CACHE, PolicyKind.RANDOM),
    "neither (baseline)": (PolicyKind.RANDOM, PolicyKind.RANDOM),
}

#: Offered load sweep, ops/s per client (the figure's x axis).
FIG6_OFFERED = np.linspace(1000, 12000, 12)


def run_fig6_config(
    label: str, *, quick: bool = False, seed: int = 42
) -> ConfigResult:
    """Age and measure one Figure 6 configuration (a runner work unit)."""
    ap, vp = FIG6_CONFIGS[label]
    sim = build_aged_ssd_sim(
        aggregate_policy=ap,
        vol_policy=vp,
        blocks_per_disk=65_536 if quick else 131_072,
        churn_factor=1.0 if quick else 2.0,
        seed=seed,
    )
    return measure_random_overwrite(sim, label, n_cps=15 if quick else 40)


def config_results(units: dict[str, dict]) -> dict[str, ConfigResult]:
    """Rebuild each unit's :class:`ConfigResult` from its ``asdict``
    payload (Figures 6 and 8; the payload also carries the derived
    ``capacity_ops``, which the dataclass recomputes)."""
    names = [f.name for f in fields(ConfigResult)]
    return {
        label: ConfigResult(**{n: u["metrics"][n] for n in names})
        for label, u in units.items()
    }


def _curve_table(curves: dict[str, list], title: str) -> str:
    """One latency-vs-achieved-throughput series per configuration."""
    return fmt_table(
        ["config", "offered/client (ops/s)", "achieved/client (ops/s)", "latency (ms)"],
        [
            [label, p.offered_per_client, p.achieved_per_client, p.latency_ms]
            for label, points in curves.items()
            for p in points
        ],
        title=title,
    )


def fig6_tables(units: dict[str, dict]) -> list[str]:
    """The Figure 6 series, the section 4.1 quantities and the
    both-vs-neither peak-throughput headline."""
    results = config_results(units)
    t1 = _curve_table(
        {label: r.curve(FIG6_OFFERED) for label, r in results.items()},
        "Figure 6: latency vs achieved throughput "
        "(8KiB random overwrites, aged all-SSD)",
    )
    t2 = fmt_table(
        [
            "config",
            "agg selected AA free",
            "agg free",
            "vol selected AA free",
            "SSD write amp",
            "CPU us/op",
            "device us/op",
            "peak ops/s",
        ],
        [
            [
                r.label,
                r.agg_selected_free,
                r.aggregate_free,
                r.vol_selected_free,
                r.write_amplification,
                r.cpu_us_per_op,
                r.device_us_per_op,
                r.capacity_ops,
            ]
            for r in results.values()
        ],
        title="Section 4.1 in-text quantities",
    )
    gain = (
        results["both caches"].capacity_ops
        / results["neither (baseline)"].capacity_ops
        - 1
    )
    return [t1, t2, f"Peak-throughput gain, both caches vs neither: {gain:+.1%}"]


# ----------------------------------------------------------------------
# Figure 7: imbalanced aging (section 4.2)
# ----------------------------------------------------------------------

FIG7_CLIENT_OPS_PER_SEC = 68_000
FIG7_N_GROUPS = 4
FIG7_AGED_GROUPS = (0, 1)


@dataclass
class Fig7Result:
    """Per-group accounting of the Figure 7 OLTP run."""

    blocks_per_disk: list[np.ndarray] = field(default_factory=list)
    tetrises: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    blocks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    stripes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    partials: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    seconds: float = 0.0

    def aged(self) -> list[int]:
        return list(FIG7_AGED_GROUPS)

    def fresh(self) -> list[int]:
        return [g for g in range(FIG7_N_GROUPS) if g not in FIG7_AGED_GROUPS]


def _build_fig7_sim(seed: int = 24) -> WaflSim:
    spec = AggregateSpec(
        tiers=(
            TierSpec(
                label="hdd",
                media="hdd",
                n_groups=FIG7_N_GROUPS,
                ndata=4,
                blocks_per_disk=65536,
                stripes_per_aa=4096,
            ),
        ),
        volumes=(
            VolumeDecl("db", logical_blocks=100_000),
            VolumeDecl("log", logical_blocks=50_000),
        ),
    )
    sim = WaflSim.build(spec, seed=seed)
    # Age RG0/RG1: a random 50% of their blocks in use (static aging:
    # the blocks are not volume-mapped, mirroring the paper's old data
    # sitting untouched while OLTP traffic runs).
    rng = np.random.default_rng(seed)
    for gi in FIG7_AGED_GROUPS:
        g = sim.store.groups[gi]
        n = g.topology.nblocks
        taken = rng.choice(n, size=int(n * 0.5), replace=False)
        g.metafile.allocate(np.sort(taken))
        g.metafile.drain_dirty()
        g.keeper.recompute(g.metafile.bitmap)
        g.adopt_cache(g.make_cache(g.keeper.scores))
    sim.store.rebind_allocators()
    fill_volumes(sim, ops_per_cp=16384, seed=seed + 1)
    reset_measurement_state(sim)
    set_bitmap_checks(sim, False)
    return sim


def run_fig7(*, quick: bool = False, seed: int = 24) -> Fig7Result:
    """Run the Figure 7 OLTP measurement with per-group capture."""
    ops_per_cp = 8192
    n_cps = 10 if quick else 30
    sim = _build_fig7_sim(seed)
    wl = OLTPWorkload(sim, ops_per_cp=ops_per_cp, read_fraction=0.65, seed=7)
    res = Fig7Result(
        blocks_per_disk=[np.zeros(4, dtype=np.int64) for _ in range(FIG7_N_GROUPS)],
        tetrises=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        blocks=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        stripes=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        partials=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        seconds=n_cps * ops_per_cp / FIG7_CLIENT_OPS_PER_SEC,
    )
    orig = sim.store.cp_boundary
    captured = []

    def wrapped():
        rep = orig()
        captured.append(rep)
        return rep

    sim.store.cp_boundary = wrapped
    it = iter(wl)
    for _ in range(n_cps):
        sim.engine.run_cp(next(it))
    popcount_audit(sim)
    for rep in captured:
        for gi, grp in enumerate(rep.groups):
            res.blocks_per_disk[gi] += grp.blocks_per_disk
            res.tetrises[gi] += grp.tetrises
            res.blocks[gi] += grp.blocks
            res.stripes[gi] += grp.stripes
            res.partials[gi] += grp.partial_stripes
    return res


def fig7_tables(units: dict[str, dict]) -> list[str]:
    """Per-disk blocks/s, per-group tetrises/s and the fresh-vs-aged
    block ratio of the Figure 7 OLTP unit."""
    m = units["oltp"]["metrics"]
    state = [
        "aged 50%" if gi in m["aged_groups"] else "fresh"
        for gi in range(FIG7_N_GROUPS)
    ]
    t1 = fmt_table(
        ["RAID group", "disk", "blocks/s"],
        [
            [f"RG{gi} ({state[gi]})", f"disk{di}", per_s]
            for gi, per_disk in enumerate(m["blocks_per_disk_per_s"])
            for di, per_s in enumerate(per_disk)
        ],
        title=(
            "Figure 7 (top): blocks/s per disk under OLTP at "
            f"{FIG7_CLIENT_OPS_PER_SEC} ops/s"
        ),
    )
    tetrises, blocks = m["tetrises_per_s"], m["blocks_per_s"]
    t2 = fmt_table(
        ["RAID group", "state", "tetrises/s", "blocks/s", "blocks/tetris",
         "partial stripe frac"],
        [
            [
                f"RG{gi}",
                state[gi],
                tetrises[gi],
                blocks[gi],
                blocks[gi] / tetrises[gi] if tetrises[gi] else 0.0,
                m["partial_stripe_fraction"][gi],
            ]
            for gi in range(FIG7_N_GROUPS)
        ],
        title="Figure 7 (bottom): tetrises/s per RAID group",
    )
    fresh = np.mean([blocks[g] for g in m["fresh_groups"]])
    aged = np.mean([blocks[g] for g in m["aged_groups"]])
    return [t1, t2, f"fresh groups receive {fresh / aged:.2f}x the blocks of aged groups"]


# ----------------------------------------------------------------------
# Figure 8: SSD AA sizing (section 4.3)
# ----------------------------------------------------------------------

#: FTL erase unit: a 64 MiB superblock.
FIG8_ERASE_UNIT = 16_384

FIG8_SIZINGS: dict[str, int] = {
    "HDD-sized AA (4k stripes)": 4096,
    "Large AA (2 erase units)": 2 * FIG8_ERASE_UNIT,
}

FIG8_OFFERED = np.linspace(1000, 10000, 10)


def run_fig8_config(
    label: str, *, quick: bool = False, seed: int = 99
) -> ConfigResult:
    """Age and measure one Figure 8 AA sizing (a runner work unit)."""
    sim = build_aged_ssd_sim(
        n_groups=1,
        ndata=3,
        blocks_per_disk=262_144 if quick else 524_288,
        stripes_per_aa=FIG8_SIZINGS[label],
        erase_block_blocks=FIG8_ERASE_UNIT,
        # Faster effective flash than the Fig 6 calibration: our
        # open-unit FTL overstates absolute write amplification (no
        # overprovisioned GC slack), so a paper-era program time
        # would make both configs purely WA-bound and exaggerate
        # the throughput ratio far past the paper's +26%.  The WA
        # *ratio* (the substantive claim) is parameter-free.
        program_us_per_block=1.8,
        fill_fraction=0.85,
        churn_factor=1.0,
        seed=seed,
    )
    # The paper's Figure 8 workload is 4 KiB random reads *and*
    # writes; read traffic is AA-size independent and keeps the
    # comparison in the mixed regime the paper measured.
    return measure_random_overwrite(
        sim, label, n_cps=12 if quick else 30, ops_per_cp=8192,
        read_fraction=0.55, blocks_per_op=2, seed=5,
    )


def fig8_tables(units: dict[str, dict]) -> list[str]:
    """The Figure 8 series, the section 4.3 SSD quantities and the
    small/large write-amplification ratio."""
    results = config_results(units)
    t1 = _curve_table(
        {label: r.curve(FIG8_OFFERED) for label, r in results.items()},
        "Figure 8: latency vs achieved throughput, SSD AA sizing (aged to 85%)",
    )
    t2 = fmt_table(
        ["config", "write amp", "CPU us/op", "device us/op", "peak ops/s"],
        [
            [r.label, r.write_amplification, r.cpu_us_per_op,
             r.device_us_per_op, r.capacity_ops]
            for r in results.values()
        ],
        title="Section 4.3 SSD quantities",
    )
    wa_ratio = (
        results["HDD-sized AA (4k stripes)"].write_amplification
        / results["Large AA (2 erase units)"].write_amplification
    )
    return [t1, t2, f"WA ratio small/large: {wa_ratio:.2f}x (paper: ~2x)"]


# ----------------------------------------------------------------------
# Figure 9: SMR AA sizing with AZCS (section 4.3)
# ----------------------------------------------------------------------

#: 63 AZCS payloads x 4096: admits both the misaligned 4k-stripe AA and
#: AZCS-aligned divisors.
FIG9_BLOCKS_PER_DISK = 63 * 4096
FIG9_ZONE_BLOCKS = 16384
FIG9_SMR_CFG = SMRConfig(zone_blocks=FIG9_ZONE_BLOCKS, rewrite_penalty_us=5000.0)
FIG9_OFFERED = np.linspace(2000, 30000, 15)


def fig9_aligned_size() -> int:
    g = RAIDGeometry(3, 1, FIG9_BLOCKS_PER_DISK)
    return aa_size_for_smr(g, FIG9_ZONE_BLOCKS, azcs=True).size


def _fig9_sizings() -> dict[str, int]:
    return {
        "HDD-sized AA (4k stripes)": 4096,
        "SMR AA (zone + AZCS aligned)": fig9_aligned_size(),
    }


#: Labels only (the aligned size needs a geometry computation).
FIG9_SIZINGS = ("HDD-sized AA (4k stripes)", "SMR AA (zone + AZCS aligned)")


def run_fig9_config(label: str, *, quick: bool = False, seed: int = 3) -> dict:
    """Run one Figure 9 AA sizing (a runner work unit)."""
    tier = TierSpec(
        label="smr",
        media="smr",
        ndata=3,
        blocks_per_disk=FIG9_BLOCKS_PER_DISK,
        stripes_per_aa=_fig9_sizings()[label],
        azcs=True,
        zone_blocks=FIG9_SMR_CFG.zone_blocks,
        rewrite_penalty_us=FIG9_SMR_CFG.rewrite_penalty_us,
    )
    sim = WaflSim.build(
        AggregateSpec(
            tiers=(tier,),
            volumes=(VolumeDecl("stream", logical_blocks=500_000),),
        ),
        seed=seed,
    )
    set_bitmap_checks(sim, False)
    wl = SequentialWriteWorkload(sim, ops_per_cp=8192, blocks_per_op=1, wrap=False)
    sim.run(wl, 10 if quick else 25)
    popcount_audit(sim)
    m = sim.metrics
    rewrites = sum(d.rewrites for g in sim.store.groups for d in g.devices)
    return {
        "label": label,
        "cpu": m.cpu_us_per_op,
        "dev": m.device_us_per_op,
        "rewrites": rewrites,
        "drive_mbps": m.total_physical_blocks * 4096 / 1e6
        / (m.total_device_busy_us / 1e6),
        "blocks": m.total_physical_blocks,
    }


def fig9_curves(units: dict[str, dict]) -> dict[str, list]:
    """Latency-vs-throughput series of each Figure 9 unit."""
    return {
        label: system_curve(u["metrics"]["cpu"], u["metrics"]["dev"], FIG9_OFFERED,
                            nclients=NCLIENTS, cores=CORES)
        for label, u in units.items()
    }


def fig9_tables(units: dict[str, dict]) -> list[str]:
    """The Figure 9 series, the section 4.3 SMR quantities and the
    aligned-AA drive-throughput gain."""
    t1 = _curve_table(
        fig9_curves(units),
        "Figure 9: latency vs achieved throughput (sequential writes, unaged SMR)",
    )
    results = {label: u["metrics"] for label, u in units.items()}
    t2 = fmt_table(
        ["config", "device us/op", "checksum-block rewrites", "drive MB/s"],
        [
            [r["label"], r["dev"], r["rewrites"], r["drive_mbps"]]
            for r in results.values()
        ],
        title="Section 4.3 SMR quantities",
    )
    gain = (
        results["SMR AA (zone + AZCS aligned)"]["drive_mbps"]
        / results["HDD-sized AA (4k stripes)"]["drive_mbps"]
        - 1
    )
    return [t1, t2, f"aligned-AA drive-throughput gain: {gain:+.1%} (paper: +7%)"]


# ----------------------------------------------------------------------
# Figure 10: TopAA and mount time (section 4.4)
# ----------------------------------------------------------------------

FIG10_VOL_VIRTUAL_BLOCKS = 32768 * 32


def _build_fig10_sim(n_vols: int, vol_virtual_blocks: int) -> WaflSim:
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="ssd", media="ssd", ndata=4,
                     blocks_per_disk=131072, stripes_per_aa=2048),
        ),
        volumes=tuple(
            VolumeDecl(f"vol{i}", logical_blocks=1024,
                       virtual_blocks=vol_virtual_blocks)
            for i in range(n_vols)
        ),
    )
    sim = WaflSim.build(spec, seed=11)
    writes = {f"vol{i}": np.arange(256) for i in range(n_vols)}
    sim.engine.run_cp(CPBatch(writes=writes, ops=256 * n_vols))
    return sim


def _fig10_first_cp_cost(sim: WaflSim, use_topaa: bool) -> dict:
    image = export_topaa(sim) if use_topaa else None
    rep = simulate_mount(sim, image)
    writes = {name: np.arange(128) for name in sim.vols}
    stats = sim.engine.run_cp(CPBatch(writes=writes, ops=128 * len(sim.vols)))
    return {
        "blocks_read": rep.blocks_read,
        "build_wall_ms": rep.build_wall_s * 1000,
        "modeled_ms": (rep.modeled_read_us + stats.device_busy_us + stats.cpu_us / CORES)
        / 1000.0,
    }


_fig10_warmed = False


def _fig10_warmup() -> None:
    """Untimed first-touch warmup for the fig10 wall clocks.

    The first ``simulate_mount`` in a fresh process pays one-time costs
    the later rows never see — lazy imports, the allocator growing its
    arenas, first-touch page faults on the freshly zeroed cache arrays
    — which used to land entirely on the sweep's first row and make its
    ``build_wall_ms`` an order-of-magnitude outlier.  One small
    build+mount per process (both the TopAA and bitmap-walk paths)
    absorbs those costs outside the timed region; the simulated metrics
    are untouched (the warmup sim is discarded).
    """
    global _fig10_warmed
    if _fig10_warmed:
        return
    _fig10_warmed = True
    # Fresh sim per mount path, exactly like the sweep rows (a second
    # mount on one sim would re-walk an already-consumed allocator).
    for use_topaa in (True, False):
        _fig10_first_cp_cost(_build_fig10_sim(2, 32768 * 4), use_topaa)


def run_fig10_size(*, quick: bool = False) -> list[list]:
    """Figure 10(A): first-CP cost vs FlexVol size (a runner work unit).
    One row per (size, mount path); the last column is the cache-build
    wall time."""
    size_mults = (4, 16) if quick else (4, 8, 16, 32)
    _fig10_warmup()
    rows: list[list] = []
    for mult in size_mults:
        virtual = 32768 * mult
        for use_topaa in (True, False):
            sim = _build_fig10_sim(8, virtual)
            cost = _fig10_first_cp_cost(sim, use_topaa)
            rows.append([f"{virtual} blk/vol", "TopAA" if use_topaa else "no TopAA",
                         cost["blocks_read"], cost["modeled_ms"], cost["build_wall_ms"]])
    return rows


def run_fig10_count(*, quick: bool = False) -> list[list]:
    """Figure 10(B): first-CP cost vs FlexVol count (a runner work unit),
    in the row layout of :func:`run_fig10_size`."""
    counts = (4, 16) if quick else (4, 8, 16, 32)
    _fig10_warmup()
    rows: list[list] = []
    for n_vols in counts:
        for use_topaa in (True, False):
            sim = _build_fig10_sim(n_vols, FIG10_VOL_VIRTUAL_BLOCKS)
            cost = _fig10_first_cp_cost(sim, use_topaa)
            rows.append([n_vols, "TopAA" if use_topaa else "no TopAA",
                         cost["blocks_read"], cost["modeled_ms"], cost["build_wall_ms"]])
    return rows


def fig10_tables(units: dict[str, dict]) -> list[str]:
    """Figure 10(A) and 10(B); the cache-build wall column comes from
    each unit's ``timing.build_wall_ms``."""
    size, count = (
        [row + [wall] for row, wall in
         zip(units[u]["metrics"]["rows"], units[u]["timing"]["build_wall_ms"])]
        for u in ("size", "count")
    )
    t1 = fmt_table(
        ["volume size", "mount path", "blocks read", "first-CP modeled (ms)",
         "cache-build wall (ms)"],
        size,
        title="Figure 10(A): first CP time vs FlexVol size (8 volumes)",
    )
    t2 = fmt_table(
        ["volumes", "mount path", "blocks read", "first-CP modeled (ms)",
         "cache-build wall (ms)"],
        count,
        title="Figure 10(B): first CP time vs number of FlexVols",
    )
    return [t1, t2]


# ----------------------------------------------------------------------
# Rendering a trajectory document
# ----------------------------------------------------------------------

#: Figure renderers by bench experiment, in the paper's order.
FIGURE_TABLES = {
    "fig6": fig6_tables,
    "fig7": fig7_tables,
    "fig8": fig8_tables,
    "fig9": fig9_tables,
    "fig10": fig10_tables,
}


def experiment_units(doc: dict, experiment: str) -> dict[str, dict]:
    """One experiment's unit results in a ``repro bench`` trajectory
    document, keyed by unit label (the renderers' input)."""
    return {
        r["unit"]: r for r in doc["units"].values() if r["experiment"] == experiment
    }


def figure_tables(doc: dict) -> list[str]:
    """Tables and headlines of every figure experiment in a trajectory
    document (other experiments render nothing)."""
    out: list[str] = []
    for exp, render in FIGURE_TABLES.items():
        units = experiment_units(doc, exp)
        if units:
            out.extend(render(units))
    return out
