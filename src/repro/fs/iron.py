"""Iron: an online file-system checker and repair tool (extension).

Paper section 3.4: "In rare cases, if the metafile blocks are damaged
in the physical media and RAID is unable to reconstruct them, the
online WAFL repair tool — WAFL Iron — is used to recompute and recover
them."  The insight Iron relies on is that bitmap metafiles, AA scores,
and AA caches are all *derived* state: the references in the file
trees and container maps are the ground truth from which everything
else can be recomputed.

This module implements that recompute path for the simulator:

* :func:`scan` cross-checks each volume's bitmap against its reference
  truth (active ``l2v``/``v2p`` mappings plus snapshot-held blocks and
  pending delayed frees) and each RAID group's bitmap against the union
  of container-map physical references, reporting leaked blocks (marked
  allocated but unreferenced) and corruptions (referenced but marked
  free), plus AA-score divergence.
* :func:`repair` rewrites the bitmaps to match the reference truth,
  recomputes every score keeper, and rebuilds the AA caches — after
  which :func:`scan` reports clean.

Run it between consistency points (delayed-free logs drained), like
the real tool's file-system-consistent checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregate import RAIDGroupRuntime
from .filesystem import WaflSim

__all__ = ["IronFinding", "IronReport", "scan", "repair"]


@dataclass(frozen=True)
class IronFinding:
    """One class of inconsistency in one file-system instance."""

    #: "leaked" (allocated, unreferenced), "corrupt" (referenced,
    #: marked free), or "score-divergence".
    kind: str
    #: "vol:<name>" or "group:<index>" / "store".
    where: str
    count: int

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.kind} x{self.count} in {self.where}"


@dataclass
class IronReport:
    """Outcome of a scan or repair pass."""

    findings: list[IronFinding] = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    def count(self, kind: str) -> int:
        return sum(f.count for f in self.findings if f.kind == kind)

    def by_where(self) -> dict[str, list[IronFinding]]:
        """Findings grouped by file-system instance (``where`` label).

        The recovery path uses this to scope escalation: only the
        volumes/groups that actually have findings are put into
        degraded allocation and repaired.
        """
        grouped: dict[str, list[IronFinding]] = {}
        for f in self.findings:
            grouped.setdefault(f.where, []).append(f)
        return grouped


def _vol_reference_virtual(vol) -> np.ndarray:
    """Ground-truth allocated virtual VBNs of one volume."""
    refs = [vol.l2v[vol.l2v >= 0]]
    for held in vol._snapshots.values():
        refs.append(held)
    pending = vol.delayed_frees.pending_vbns()
    if pending.size:
        refs.append(pending)
    if not refs:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(refs))


def _store_reference_physical(sim: WaflSim) -> np.ndarray:
    """Ground-truth allocated physical VBNs (container-map union plus
    pending physical delayed frees)."""
    refs = []
    for vol in sim.vols.values():
        p = vol.v2p[vol.v2p >= 0]
        if p.size:
            refs.append(p)
    for _, fs, base in sim.store.physical_instances():
        pending = fs.delayed_frees.pending_vbns()
        if pending.size:
            refs.append(pending + base)
    if not refs:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(refs))


def _diff_bitmap(bitmap, reference: np.ndarray) -> tuple[int, int]:
    """(leaked, corrupt) counts for a bitmap vs sorted reference VBNs."""
    mask = np.zeros(bitmap.nblocks, dtype=bool)
    if reference.size:
        mask[reference] = True
    allocated = np.zeros(bitmap.nblocks, dtype=bool)
    alloc_idx = bitmap.allocated_in_range(0, bitmap.nblocks)
    allocated[alloc_idx] = True
    leaked = int(np.count_nonzero(allocated & ~mask))
    corrupt = int(np.count_nonzero(~allocated & mask))
    return leaked, corrupt


def _in_scope(where: str, scope) -> bool:
    return scope is None or where in scope


def scan(sim: WaflSim, scope=None) -> IronReport:
    """Read-only cross-check of bitmaps, references, and scores.

    ``scope`` — optional collection of ``where`` labels ("vol:<name>",
    "group:<i>", "store"); file systems outside it are not checked.
    None checks everything.
    """
    report = IronReport()
    for name, vol in sim.vols.items():
        if not _in_scope(f"vol:{name}", scope):
            continue
        ref = _vol_reference_virtual(vol)
        leaked, corrupt = _diff_bitmap(vol.metafile.bitmap, ref)
        if leaked:
            report.findings.append(IronFinding("leaked", f"vol:{name}", leaked))
        if corrupt:
            report.findings.append(IronFinding("corrupt", f"vol:{name}", corrupt))
        truth = vol.topology.scores_from_bitmap(vol.metafile.bitmap)
        diverged = int(np.count_nonzero(truth != vol.keeper.scores))
        if diverged:
            report.findings.append(
                IronFinding("score-divergence", f"vol:{name}", diverged)
            )

    phys_ref = _store_reference_physical(sim)
    for where, fs, base in sim.store.physical_instances():
        if not _in_scope(where, scope):
            continue
        lo, hi = base, base + fs.topology.nblocks
        local_ref = phys_ref[(phys_ref >= lo) & (phys_ref < hi)] - lo
        leaked, corrupt = _diff_bitmap(fs.metafile.bitmap, local_ref)
        if leaked:
            report.findings.append(IronFinding("leaked", where, leaked))
        if corrupt:
            report.findings.append(IronFinding("corrupt", where, corrupt))
        if isinstance(fs, RAIDGroupRuntime):
            # Linear stores keep no group-level score pin (their HBPS
            # cache is refreshed from bitmap walks), so score
            # divergence is only a finding for RAID groups.
            truth = fs.topology.scores_from_bitmap(fs.metafile.bitmap)
            diverged = int(np.count_nonzero(truth != fs.keeper.scores))
            if diverged:
                report.findings.append(
                    IronFinding("score-divergence", where, diverged)
                )
    return report


def repair(sim: WaflSim, scope=None, *, rebuild_caches: bool = True) -> IronReport:
    """Recompute bitmaps, scores, and caches from the reference maps.

    Returns only the findings that were actually fixed — with ``scope``
    set, file systems outside it are neither scanned nor touched, so
    escalation driven by :meth:`IronReport.by_where` repairs exactly
    the damaged instances.

    ``rebuild_caches=False`` repairs bitmaps and score keepers but
    leaves the AA caches offline: each repaired file system is put into
    (or kept in) degraded allocation — the bitmap walk — so the caller
    controls when caches come back (see :mod:`repro.faults.recovery`).

    Note: blocks reported as *leaked* on the physical side that
    belonged to data not tracked by any container map (e.g. synthetic
    aging fills) are reclaimed — Iron trusts the file trees, exactly
    like the real tool.
    """
    report = scan(sim, scope)
    # Volumes: rewrite virtual bitmaps to reference truth.
    for name, vol in sim.vols.items():
        if not _in_scope(f"vol:{name}", scope):
            continue
        ref = _vol_reference_virtual(vol)
        bm = vol.metafile.bitmap
        vol.allocator.release()
        bm.clear_range(0, bm.nblocks)
        bm.allocate(ref)
        vol.metafile.drain_dirty()
        vol.keeper.recompute(bm)
        if rebuild_caches:
            if vol.cache is not None or vol.degraded_alloc:
                vol.adopt_cache(vol.make_cache(vol.keeper.scores))
        elif not vol.degraded_alloc:
            vol.enter_degraded()
    # Physical stores: rewrite to container-map truth.
    phys_ref = _store_reference_physical(sim)
    store = sim.store
    touched = False
    for where, fs, base in store.physical_instances():
        if not _in_scope(where, scope):
            continue
        touched = True
        lo, hi = base, base + fs.topology.nblocks
        local_ref = phys_ref[(phys_ref >= lo) & (phys_ref < hi)] - lo
        bm = fs.metafile.bitmap
        fs.allocator.release()
        bm.clear_range(0, bm.nblocks)
        bm.allocate(local_ref)
        fs.metafile.drain_dirty()
        fs.keeper.recompute(bm)
        if isinstance(fs, RAIDGroupRuntime):
            if rebuild_caches:
                if fs.cache is not None or fs.degraded_alloc:
                    fs.adopt_cache(fs.make_cache(fs.keeper.scores))
            elif not fs.degraded_alloc:
                fs.enter_degraded()
        elif not rebuild_caches:
            if not fs.degraded_alloc:
                fs.enter_degraded()
        elif fs.cache is not None:
            # A linear store's live HBPS cache is refilled in place;
            # adopt_cache is only for coming back from degraded mode.
            fs.cache.refill(fs.keeper.scores)
        elif fs.degraded_alloc:
            fs.adopt_cache(fs.make_cache(fs.keeper.scores))
    if touched:
        store.rebind_allocators()
    report.repaired = True
    return report
