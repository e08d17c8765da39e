"""The four benchmark workloads, driven through the public API of
``repro``.

Each workload turns the benchmark seed into the specs and requests the
program receives, builds its system in :meth:`Workload.setup` (timed as
set-up), runs a fixed amount of work in :meth:`Workload.measure` (every
CP, engine step or migration timed on its own), and afterwards — outside
any timed region — reads its deterministic simulated metrics, per-layer
counts and a state digest, and checks the result for correctness.

A repeat is one set-up plus one measured phase.  The work in a repeat is
fixed (it does not depend on how fast the host is), so two commits
measure the same history and the digests of all repeats of one seed
must agree.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.auditor import audit_sim
from repro.bench.harness import CORES, build_aged_ssd_sim, popcount_audit
from repro.cluster import Cluster, FilterScheduler, ShardRuntime, make_shard_specs
from repro.cluster.volumes import noisy_fleet_requests
from repro.common.config import SimConfig
from repro.common.errors import BitmapError
from repro.common.rng import derive_seed
from repro.devices.ssd import SSD
from repro.fs import iron
from repro.tiering import migration
from repro.tiering.bench import build_tiered_sim
from repro.traffic.engine import TrafficEngine
from repro.traffic.scenarios import build_scenario, build_traffic_sim, calibrate_capacity
from repro.workloads import RandomOverwriteWorkload, fill_volumes, reset_measurement_state


class OpFailed(Exception):
    """A timed operation raised; the repeat stops there."""


def _kinds() -> dict[str, list[float]]:
    return {"cp": [], "migration": []}


@dataclass
class Recorder:
    """Host times of the operations of one measured phase: process CPU
    ms (what the metrics use) and wall ms (recorded alongside)."""

    #: kind ("cp", "migration") -> CPU ms per operation.
    ms: dict[str, list[float]] = field(default_factory=_kinds)
    wall_ms: dict[str, list[float]] = field(default_factory=_kinds)
    attempted: int = 0
    failed: int = 0
    error: str = ""

    def time(self, kind: str | None, fn, *args):
        """Run ``fn(*args)``; its times go to ``ms[kind]`` (if any)."""
        self.attempted += 1
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted as a failed op, then reported
            self.failed += 1
            self.error = traceback.format_exc()
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
        if kind is not None:
            self.ms[kind].append((time.process_time() - c0) * 1e3)
            self.wall_ms[kind].append((time.perf_counter() - w0) * 1e3)
        return out


# ----------------------------------------------------------------------
# Deterministic readouts shared by the workloads
# ----------------------------------------------------------------------
def _metafiles(sim) -> list:
    mfs = [v.metafile for v in sim.vols.values()]
    mfs.extend(fs.metafile for _, fs, _ in sim.store.physical_instances())
    return mfs


def sim_digest(sim, extra: dict | None = None) -> str:
    """sha256 over every bitmap's bytes, the CP log summary and
    ``extra`` (a JSON-able payload)."""
    h = hashlib.sha256()
    for mf in _metafiles(sim):
        h.update(mf.to_bytes())
    h.update(json.dumps(sim.metrics.summary(), sort_keys=True).encode())
    if extra is not None:
        h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()


def _ssd_data_devices(sims) -> list:
    devs = []
    for sim in sims:
        for _, fs, _ in sim.store.physical_instances():
            devs.extend(d for d in getattr(fs, "data_devices", fs.devices)
                        if isinstance(d, SSD))
    return devs


def storage_readout(sims) -> dict[str, float]:
    """Simulated ratios over the CP logs of ``sims`` (pooled).

    ``write_amp`` follows the paper benches' definition: the mean over
    SSD data devices that took host writes of device/host blocks.
    """
    cps = [c for sim in sims for c in sim.metrics.cps]
    ops = sum(c.ops for c in cps)
    full = sum(c.full_stripes for c in cps)
    stripes = full + sum(c.partial_stripes for c in cps)
    chains = sum(c.write_chains for c in cps)
    phys = sum(c.physical_blocks for c in cps)
    cpu_us = sum(c.cpu_us for c in cps)
    dev_us = sum(c.device_busy_us for c in cps)
    was = [d.write_amplification for d in _ssd_data_devices(sims)
           if d.stats.host_blocks_written]
    agg_sel = np.concatenate([sim.store.selected_aa_free_fractions() for sim in sims])
    vol_sel = np.concatenate([v.selected_aa_free_fractions()
                              for sim in sims for v in sim.vols.values()])
    all_devs = [d for sim in sims for _, fs, _ in sim.store.physical_instances()
                for d in fs.devices]
    n = len(cps)
    cpu_per_op = cpu_us / ops if ops else 0.0
    dev_per_op = dev_us / ops if ops else 0.0
    return {
        "cps": n,
        "cpu_us_per_op": cpu_per_op,
        # The 20-core bottleneck model of repro.bench.harness.ConfigResult.
        "capacity_ops": min(CORES * 1e6 / cpu_per_op if cpu_per_op else float("inf"),
                            1e6 / dev_per_op if dev_per_op else float("inf")),
        "write_amp": float(np.mean(was)) if was else 1.0,
        "metafile_blocks_per_op": sum(c.metafile_blocks_dirtied for c in cps) / ops if ops else 0.0,
        "full_stripe_fraction": full / stripes if stripes else 0.0,
        "mean_chain_length": phys / chains if chains else 0.0,
        "parity_reads_per_cp": sum(c.parity_reads for c in cps) / n if n else 0.0,
        "cache_ops_per_cp": sum(c.cache_ops for c in cps) / n if n else 0.0,
        "aa_switches_per_cp": sum(c.aa_switches for c in cps) / n if n else 0.0,
        "agg_selected_free": float(agg_sel.mean()) if agg_sel.size else 0.0,
        "vol_selected_free": float(vol_sel.mean()) if vol_sel.size else 0.0,
        "blocks_written": sum(d.stats.host_blocks_written for d in all_devs),
    }


def storage_counts(r: dict[str, float]) -> dict[str, float]:
    """The per-layer counts of the storage stack, from a readout."""
    return {
        "core.cache_ops_per_cp": r["cache_ops_per_cp"],
        "core.aa_switches_per_cp": r["aa_switches_per_cp"],
        "core.selected_aa_free_frac.agg": r["agg_selected_free"],
        "core.selected_aa_free_frac.vol": r["vol_selected_free"],
        "bitmap.metafile_blocks_per_op": r["metafile_blocks_per_op"],
        "raid.full_stripe_fraction": r["full_stripe_fraction"],
        "raid.mean_chain_length": r["mean_chain_length"],
        "raid.parity_reads_per_cp": r["parity_reads_per_cp"],
        "devices.blocks_written": r["blocks_written"],
        "devices.write_amp": r["write_amp"],
    }


def check_sim(sim, where: str, *, popcount: bool = False) -> list[str]:
    """Invariant audit + Iron scan (+ bitmap popcount audit)."""
    problems = []
    if popcount:
        try:
            popcount_audit(sim)
        except BitmapError as exc:
            problems.append(f"{where}: popcount audit: {exc}")
    report = audit_sim(sim)
    if not report.ok:
        problems.append(f"{where}: audit: {report.violations[:3]}")
    scan = iron.scan(sim)
    if not scan.clean:
        problems.append(f"{where}: iron: {scan.findings[:3]}")
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One named workload at one size, seeded from the benchmark seed."""

    name = ""
    #: Repeats a run makes at least (set-up median, digest check).
    min_repeats = 3

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.tiny = tiny
        self.build_seed = derive_seed(seed, "build")
        self.run_seed = derive_seed(seed, "run")

    def setup(self):
        raise NotImplementedError

    def measure(self, state, rec: Recorder) -> None:
        raise NotImplementedError

    def committed_cps(self, state) -> int:
        """CPs of the measured history (the ``cps_per_s`` numerator)."""
        return len(state.sim.metrics.cps)

    def readout(self, state) -> tuple[str, dict, dict]:
        """``(digest, simulated metrics, per-layer counts)``."""
        raise NotImplementedError

    def verify(self, state) -> list[str]:
        """Correctness findings (empty when clean)."""
        raise NotImplementedError


@dataclass
class _SimState:
    sim: object


class AgedOverwrite(Workload):
    """Paper section 4.1: aged 2x(4+1) SSD RAID-4, random overwrites."""

    name = "aged-overwrite"

    def __init__(self, seed: int, *, tiny: bool = False, n_cps: int | None = None,
                 build_seed: int | None = None, run_seed: int | None = None) -> None:
        super().__init__(seed, tiny=tiny)
        if build_seed is not None:
            self.build_seed = build_seed
        if run_seed is not None:
            self.run_seed = run_seed
        self.n_cps = n_cps if n_cps is not None else (4 if tiny else 150)

    def setup(self):
        if self.tiny:
            sim = build_aged_ssd_sim(blocks_per_disk=8192, churn_factor=0.5,
                                     seed=self.build_seed)
        else:
            sim = build_aged_ssd_sim(seed=self.build_seed)
        return _SimState(sim)

    def measure(self, state, rec: Recorder) -> None:
        sim = state.sim
        batches = iter(RandomOverwriteWorkload(
            sim, ops_per_cp=1024 if self.tiny else 8192, blocks_per_op=2,
            seed=self.run_seed))
        run_cp = sim.engine.run_cp
        for _ in range(self.n_cps):
            rec.time("cp", lambda: run_cp(next(batches)))

    def readout(self, state):
        r = storage_readout([state.sim])
        sim_metrics = {
            "sim_capacity_ops": r["capacity_ops"],
            "sim_write_amp": r["write_amp"],
            "sim_metafile_blocks_per_op": r["metafile_blocks_per_op"],
            "sim_full_stripe_fraction": r["full_stripe_fraction"],
            "cpu_us_per_op": r["cpu_us_per_op"],
        }
        return sim_digest(state.sim), sim_metrics, storage_counts(r)

    def verify(self, state):
        return check_sim(state.sim, self.name, popcount=True)


@dataclass
class _TrafficState:
    sim: object
    engine: TrafficEngine


class NoisyTenants(Workload):
    """Open loop on the simulated clock: noisy-neighbor, 4 tenants."""

    name = "noisy-tenants"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed, tiny=tiny)
        self.n_steps = 4 if tiny else 200

    def setup(self):
        sim = build_traffic_sim(
            4, blocks_per_disk=8192 if self.tiny else 131_072,
            churn_factor=0.5 if self.tiny else 2.0, seed=self.build_seed)
        cal = calibrate_capacity(sim, seed=derive_seed(self.run_seed, "calibrate"))
        tenants = build_scenario("noisy-neighbor", sim, cal.capacity_ops,
                                 n_tenants=4, seed=self.run_seed)
        return _TrafficState(sim, TrafficEngine(sim, tenants))

    def measure(self, state, rec: Recorder) -> None:
        step = state.engine.step
        for _ in range(self.n_steps):
            rec.time("cp", step)

    def readout(self, state):
        summary = state.engine.summary()
        r = storage_readout([state.sim])
        tenants = summary.tenants.values()
        sim_metrics = {
            "sim_capacity_ops": summary.capacity_ops,
            "sim_write_amp": r["write_amp"],
            "sim_metafile_blocks_per_op": r["metafile_blocks_per_op"],
            "sim_full_stripe_fraction": r["full_stripe_fraction"],
            "sim_victim_p99_ms": summary.tenants["t1-victim"].p99_ms,
        }
        counts = storage_counts(r)
        counts.update({
            "traffic.admitted": sum(t.admitted for t in tenants),
            "traffic.rejected": sum(t.rejected for t in tenants),
            "traffic.backlog_max": max(t.max_queue_depth for t in tenants),
        })
        return sim_digest(state.sim, summary.as_dict()), sim_metrics, counts

    def verify(self, state):
        return check_sim(state.sim, self.name)


@dataclass
class _FleetState:
    cluster: Cluster
    requests: list
    config: SimConfig
    result: object = None
    shards: list = field(default_factory=list)


class Fleet(Workload):
    """8 shards x 3 volumes, filter/weigher scheduling, in-process."""

    name = "fleet"
    min_repeats = 2

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed, tiny=tiny)
        self.n_shards = 2 if tiny else 8
        self.per_shard = 3

    def setup(self):
        config = SimConfig.default()
        specs = make_shard_specs(self.n_shards, seed=self.build_seed, config=config)
        requests = noisy_fleet_requests(self.n_shards * self.per_shard,
                                        seed=derive_seed(self.run_seed, "fleet"))
        cluster = Cluster(specs, scheduler=FilterScheduler(config=config),
                          config=config, workers=1)
        return _FleetState(cluster, requests, config)

    def measure(self, state, rec: Recorder) -> None:
        # Per-CP host time on the fleet: each shard epoch's time over
        # its CPs, read by a timer around ShardRuntime.run_epoch.
        original = ShardRuntime.run_epoch

        def timed_epoch(rt, *args, **kwargs):
            c0, w0 = time.process_time(), time.perf_counter()
            out = original(rt, *args, **kwargs)
            if out is not None and out.cps:
                rec.ms["cp"].append((time.process_time() - c0) * 1e3 / out.cps)
                rec.wall_ms["cp"].append((time.perf_counter() - w0) * 1e3 / out.cps)
            return out

        ShardRuntime.run_epoch = timed_epoch
        try:
            state.result = rec.time(None, state.cluster.schedule, state.requests)
        finally:
            ShardRuntime.run_epoch = original

    def committed_cps(self, state) -> int:
        # Useful shard-CPs: those of the final evaluated history only.
        return sum(e["cps"] for p in state.result.payloads.values()
                   for e in p["epochs"] if e is not None)

    def _rebuild(self, state) -> list:
        """Replay every shard's placement history through the public
        ShardRuntime API (the cluster discards its runtimes)."""
        if not state.shards:
            res = state.result
            for spec in state.cluster.specs:
                rt = ShardRuntime(spec, config=state.config)
                history = state.cluster.placements[spec.shard_id]
                for epoch in range(res.epochs):
                    for request, placed_at in history:
                        if placed_at == epoch:
                            rt.add_volume(request)
                    rt.run_epoch(res.epoch_cps)
                state.shards.append(rt)
        return state.shards

    def readout(self, state):
        res = state.result
        shards = self._rebuild(state)
        r = storage_readout([rt.sim for rt in shards])
        victims = [q.name for q in state.requests if q.profile == "victim"]
        p99s = [res.tenant_p99_ms[v] for v in victims if v in res.tenant_p99_ms]
        caps = [next(e for e in reversed(p["epochs"]) if e is not None)["capacity_ops"]
                for p in res.payloads.values() if any(p["epochs"])]
        sim_metrics = {
            "sim_capacity_ops": float(np.mean(caps)),
            "sim_write_amp": r["write_amp"],
            "sim_metafile_blocks_per_op": r["metafile_blocks_per_op"],
            "sim_full_stripe_fraction": r["full_stripe_fraction"],
            "sim_victim_p99_ms": float(np.mean(p99s)),
        }
        counts = storage_counts(r)
        tenants = [t for p in res.payloads.values() for e in p["epochs"]
                   if e is not None for t in e["tenants"].values()]
        counts.update({
            "traffic.admitted": sum(t["admitted"] for t in tenants),
            "traffic.rejected": sum(t["rejected"] for t in tenants),
            "traffic.backlog_max": max(t["max_queue_depth"] for t in tenants),
            "cluster.shard_epochs_useful": len(res.payloads) * res.epochs,
        })
        return res.digest, sim_metrics, counts

    def verify(self, state):
        problems = []
        for rt in self._rebuild(state):
            sid = rt.spec.shard_id
            if rt.digest() != state.result.shard_digests[sid]:
                problems.append(f"{self.name}: shard {sid} replay digest differs")
            problems.extend(check_sim(rt.sim, f"{self.name}: shard {sid}"))
        return problems


@dataclass
class _TierState:
    sim: object
    copied: int = 0


class TierChurn(Workload):
    """Mirrored SSD + RAID-4 HDD + RAID-DP SMR: churn and migrations."""

    name = "tier-churn"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed, tiny=tiny)
        self.n_cycles = 2 if tiny else 40

    def setup(self):
        sim = build_tiered_sim(quick=self.tiny, seed=self.build_seed)
        fill_volumes(sim, ops_per_cp=8192, seed=derive_seed(self.build_seed, "fill"))
        reset_measurement_state(sim)
        return _TierState(sim)

    def measure(self, state, rec: Recorder) -> None:
        sim = state.sim
        batches = iter(RandomOverwriteWorkload(
            sim, ops_per_cp=2048, seed=derive_seed(self.run_seed, "churn")))
        run_cp = sim.engine.run_cp

        def churn():
            return run_cp(next(batches))

        for _ in range(self.n_cycles):
            for _ in range(6):
                rec.time("cp", churn)
            report = rec.time("migration", migration.migrate_volume_tier,
                              sim, "oltp0", "smr")
            state.copied += report.copied
            for _ in range(2):
                rec.time("cp", churn)
            for report in rec.time("migration", migration.rebalance_tiers, sim):
                state.copied += report.copied

    def readout(self, state):
        r = storage_readout([state.sim])
        sim_metrics = {
            "sim_capacity_ops": r["capacity_ops"],
            "sim_write_amp": r["write_amp"],
            "sim_metafile_blocks_per_op": r["metafile_blocks_per_op"],
            "sim_full_stripe_fraction": r["full_stripe_fraction"],
        }
        counts = storage_counts(r)
        counts["tiering.blocks_copied"] = state.copied
        placements = {n: state.sim.store.tier_policy.tier_of(n) for n in state.sim.vols}
        extra = {"copied": state.copied, "placements": placements}
        return sim_digest(state.sim, extra), sim_metrics, counts

    def verify(self, state):
        problems = check_sim(state.sim, self.name)
        if state.sim.store.tier_policy.tier_of("oltp0") != "flash":
            problems.append(f"{self.name}: rebalance left oltp0 off the flash tier")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AgedOverwrite, NoisyTenants, Fleet, TierChurn)
}
