"""Mount and failover: TopAA-seeded versus full-rebuild cache builds.

"When an aggregate or FlexVol volume is mounted, write allocation
cannot begin until an AA is selected, which in turn requires that AA
caches be operational.  Rebuilding AA caches requires a linear walk of
the bitmap metafiles ... this may take multiple seconds.  Instead,
each WAFL file system instance stores the AA cache structure in a
TopAA metafile." (paper section 3.4)

This module implements both mount paths against a simulator whose
bitmaps represent the persisted state:

* :func:`export_topaa` captures the TopAA metafile image (one 4 KiB
  block per RAID-aware cache with the 512 best AAs; two blocks per
  RAID-agnostic cache embedding the HBPS), keyed by each file
  system's ``where`` label.  Every page is *sealed*
  with a CRC32 checksum header (:func:`repro.core.topaa.seal_page`) so
  damage is detected at mount instead of seeding garbage.
* :func:`simulate_mount` rebuilds every AA cache either from the TopAA
  image (reading 1-2 blocks per file system) or by walking all bitmap
  metafile blocks, swaps the fresh caches into the simulator, and
  reports both measured wall time and modeled read I/O — the
  quantities behind Figure 10's "time for the first CP after boot".

  The mount is *self-healing*: a corrupt, truncated, stale, or missing
  TopAA page makes only that file system fall back to the bitmap walk
  (recorded in :attr:`MountReport.fallbacks`); transient read failures
  are retried with bounded backoff; and a walk that hits metafile
  damage RAID cannot reconstruct escalates to a scoped
  :func:`repro.fs.iron.repair` of exactly that file system.  A page
  that fails verification can never install a cache.
* :func:`background_rebuild` completes a seeded mount: it populates
  the remaining heap-cache AAs and replenishes the HBPS caches with
  exact scores, as WAFL's background scan does while "client
  operations and CPs are sustained for dozens of seconds using the
  seeded AAs".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..common.constants import BLOCK_SIZE
from ..common.errors import MediaError, SerializationError
from ..common.retry import RetryBudget, retry_with_backoff
from ..core.aa import StripeAATopology
from ..core.topaa import (
    PAGE_KIND_HBPS,
    PAGE_KIND_HEAP_SEED,
    seal_page,
    seed_heap_cache,
    serialize_heap_seed,
    serialize_hbps_cache,
    load_hbps_cache,
    unseal_page,
)
from .filesystem import WaflSim
from .space import AASpace

__all__ = ["TopAAImage", "MountReport", "export_topaa", "simulate_mount", "background_rebuild"]

#: Modeled time to read one 4 KiB metafile block at mount (random read
#: from an HDD/SSD pool amortized over readahead).
DEFAULT_METAFILE_READ_US = 250.0

#: Total transient-read retries budgeted for one recovery (shared by
#: the mount walk and the background rebuild) before the typed
#: :class:`~repro.common.errors.RecoveryExhaustedError` is raised.
DEFAULT_MOUNT_RETRIES = 3

_UNSEAL_REASONS = ("bad-magic", "bad-version", "wrong-kind", "bad-crc", "stale", "truncated")


@dataclass
class TopAAImage:
    """Persisted TopAA metafile contents for one aggregate.

    Every entry is a sealed page: payload prefixed by the CRC32
    checksum header of :func:`repro.core.topaa.seal_page`.  The header
    models the block's per-block checksum area (BCS/AZCS), so the
    *modeled* read cost stays 1 block per RAID group and 2 per
    FlexVol/linear store.
    """

    #: Sealed page per file system, by ``where`` label: one 4 KiB block
    #: per RAID group (512 best AAs), two per RAID-agnostic space
    #: (embedded HBPS).
    pages: dict[str, bytes] = field(default_factory=dict)

    @property
    def total_blocks(self) -> int:
        # The checksum header is smaller than a block, so floor division
        # counts only the payload blocks.
        return sum(len(p) // BLOCK_SIZE for p in self.pages.values())


@dataclass
class MountReport:
    """Cost breakdown of one simulated mount."""

    used_topaa: bool = False
    #: 4 KiB blocks read to build the caches (TopAA blocks or the full
    #: bitmap metafile walk).
    blocks_read: int = 0
    #: Wall-clock seconds spent building caches (real work in this
    #: process: bitmap popcount walks vs page decoding).
    build_wall_s: float = 0.0
    #: Modeled read-I/O time for those blocks (plus retry backoff).
    modeled_read_us: float = 0.0
    #: Caches built (RAID groups + volumes + linear store).
    caches_built: int = 0
    #: File systems whose TopAA page was unusable, mapped to the reason
    #: ("missing-page", "bad-crc", "stale", "truncated", ...); each
    #: fell back to its own bitmap walk.
    fallbacks: dict[str, str] = field(default_factory=dict)
    #: File systems whose bitmap walk hit unreconstructable damage and
    #: were repaired in place by a scoped Iron pass.
    repairs: list[str] = field(default_factory=list)
    #: Transient read failures absorbed by retry (mount walk phase).
    transient_retries: int = 0
    #: Modeled backoff time spent on those retries.
    retry_backoff_us: float = 0.0
    #: Transient retries absorbed by the background rebuild when it was
    #: handed this report (see :func:`background_rebuild`).
    rebuild_retries: int = 0
    #: Size of the shared recovery retry budget this mount drew from.
    retry_budget_limit: int = 0

    @property
    def total_retries(self) -> int:
        """All transient retries charged to the shared budget."""
        return self.transient_retries + self.rebuild_retries

    @property
    def modeled_total_us(self) -> float:
        """Modeled time-to-first-CP contribution of cache building."""
        return self.modeled_read_us


def _spaces(sim: WaflSim) -> list[AASpace]:
    """Every file-system instance: the store's physical instances,
    then the FlexVols."""
    return [fs for _, fs, _ in sim.store.physical_instances()] + list(
        sim.vols.values()
    )


def _raid_aware(fs: AASpace) -> bool:
    """True for RAID groups, whose heap caches persist a 1-block seed;
    RAID-agnostic spaces embed their HBPS in 2 blocks."""
    return isinstance(fs.topology, StripeAATopology)


def export_topaa(sim: WaflSim) -> TopAAImage:
    """Capture the TopAA metafile image of a running system.

    WAFL updates these blocks as part of normal CPs; capturing at an
    arbitrary CP boundary is therefore representative.  Pages are
    sealed with their checksum header and the exporting topology's AA
    count (stale detection).  A RAID group's seed comes from its score
    keeper, so it is exported with or without a live cache; an HBPS
    page needs the cache itself.
    """
    image = TopAAImage()
    for fs in _spaces(sim):
        num_aas = fs.topology.num_aas
        if _raid_aware(fs):
            page = seal_page(
                serialize_heap_seed(fs.keeper.scores), PAGE_KIND_HEAP_SEED, num_aas
            )
        elif fs.cache is not None:
            page = seal_page(serialize_hbps_cache(fs.cache), PAGE_KIND_HBPS, num_aas)
        else:
            continue
        image.pages[fs.where] = page
    return image


def _load_page(image: TopAAImage, fs: AASpace, report: MountReport):
    """The cache seeded from ``fs``'s verified TopAA page, or None after
    recording why the page is unusable in ``report.fallbacks``."""
    blob = image.pages.get(fs.where)
    if blob is None:
        report.fallbacks[fs.where] = "missing-page"
        return None
    num_aas = fs.topology.num_aas
    kind = PAGE_KIND_HEAP_SEED if _raid_aware(fs) else PAGE_KIND_HBPS
    try:
        payload = unseal_page(blob, kind, num_aas)
    except SerializationError as exc:
        report.fallbacks[fs.where] = _unseal_reason(exc)
        return None
    if kind == PAGE_KIND_HEAP_SEED:
        report.blocks_read += 1
        return seed_heap_cache(num_aas, payload)
    report.blocks_read += 2
    return load_hbps_cache(
        payload, num_aas, list_capacity=fs.sim_config.cache.hbps_list_capacity
    )


def _unseal_reason(exc: SerializationError) -> str:
    msg = str(exc)
    for token in _UNSEAL_REASONS:
        if token in msg:
            return token
    return "invalid"


def _walk_bitmap(
    sim: WaflSim,
    fs,
    report: MountReport,
    *,
    budget: RetryBudget,
    backoff_us: float,
) -> bool:
    """Charge one fault-guarded bitmap-metafile walk of ``fs``.

    Transient failures retry with linear backoff (charged to the
    report) from the recovery-wide ``budget``; damage RAID cannot
    reconstruct escalates to a scoped Iron repair of exactly this file
    system.  Returns True when Iron repaired (and rebuilt the cache of)
    the file system in place, so the caller must not install a cache of
    its own.
    """
    try:
        blocks, retries, spent_us = retry_with_backoff(
            fs.read_metafile,
            budget=budget,
            base_backoff_us=backoff_us,
            where=fs.where,
        )
    except MediaError:
        from .iron import repair as iron_repair

        iron_repair(sim, scope={fs.where})
        # The repair pass recomputed everything from the reference
        # maps — charge the walk it performed.
        report.blocks_read += fs.metafile.note_scan_read()
        report.repairs.append(fs.where)
        return True
    report.blocks_read += blocks
    report.transient_retries += retries
    report.retry_backoff_us += spent_us
    return False


def simulate_mount(
    sim: WaflSim,
    image: TopAAImage | None,
    *,
    metafile_read_us: float = DEFAULT_METAFILE_READ_US,
    max_retries: int = DEFAULT_MOUNT_RETRIES,
    retry_backoff_us: float | None = None,
    budget: RetryBudget | None = None,
) -> MountReport:
    """Rebuild all AA caches as a mount would and install them.

    With ``image`` the TopAA path is taken (read 1 block per RAID
    group, 2 per volume); with ``None`` every bitmap metafile block is
    walked to recompute scores.  Only cache-backed stores/volumes are
    rebuilt (baseline policies have no mount cost).

    Every TopAA page is verified (CRC32, magic, version, kind, AA
    count) before anything is built from it; any failure — including a
    file system present in the simulator but absent from the image —
    downgrades that one file system to the bitmap walk and is recorded
    in :attr:`MountReport.fallbacks`.  The walk itself is fault-guarded
    (see :func:`_walk_bitmap`).

    ``budget`` bounds transient-read retries for the *whole* recovery:
    pass the same :class:`~repro.common.retry.RetryBudget` here and to
    :func:`background_rebuild` and both phases draw from one pool (a
    fresh ``RetryBudget(max_retries)`` is created when omitted).
    """
    if retry_backoff_us is None:
        retry_backoff_us = 4 * metafile_read_us
    if budget is None:
        budget = RetryBudget(max_retries)
    report = MountReport(used_topaa=image is not None)
    report.retry_budget_limit = budget.limit
    t0 = time.perf_counter()
    try:
        for fs in _spaces(sim):
            if fs.cache is None and not fs.degraded_alloc:
                continue
            cache = None if image is None else _load_page(image, fs, report)
            if cache is None:
                if _walk_bitmap(
                    sim, fs, report, budget=budget, backoff_us=retry_backoff_us
                ):
                    report.caches_built += 1
                    continue
                scores = fs.topology.scores_from_bitmap(fs.metafile.bitmap)
                cache = fs.make_cache(scores)
            fs.adopt_cache(cache)
            report.caches_built += 1
    finally:
        # Group-level adoption invalidates the aggregate allocator's
        # bindings, even when a later walk runs out of retries (a no-op
        # for linear stores).
        sim.store.rebind_allocators()
    report.build_wall_s = time.perf_counter() - t0
    report.modeled_read_us = (
        report.blocks_read * metafile_read_us + report.retry_backoff_us
    )
    return report


def background_rebuild(
    sim: WaflSim,
    *,
    max_retries: int = DEFAULT_MOUNT_RETRIES,
    budget: RetryBudget | None = None,
    report: MountReport | None = None,
) -> dict[str, int]:
    """Complete a TopAA-seeded mount: populate the heap caches' unknown
    AAs and replenish HBPS caches with exact scores (the background
    bitmap walk).  Returns counts of AAs populated / caches refreshed.

    The walks go through each file system's fault-guarded
    ``read_metafile`` with bounded retries, so an injector's transient
    faults delay rather than kill the background scan.  Pass the
    ``budget`` used by :func:`simulate_mount` to bound the whole
    recovery by one retry pool, and its :class:`MountReport` to have
    the rebuild's retries counted (``rebuild_retries``).
    """
    if budget is None:
        budget = RetryBudget(max_retries)

    def _read(fs) -> None:
        _, retries, _ = retry_with_backoff(
            fs.read_metafile, budget=budget, base_backoff_us=0.0, where=fs.where
        )
        if report is not None:
            report.rebuild_retries += retries

    populated = 0
    refreshed = 0
    for fs in _spaces(sim):
        cache = fs.cache
        if cache is None:
            continue
        if _raid_aware(fs):
            if cache.fully_populated:
                continue
            _read(fs)
            scores = fs.topology.scores_from_bitmap(fs.metafile.bitmap)
            for aa in range(fs.topology.num_aas):
                if cache.score_of(aa) < 0 and aa not in cache.checked_out:
                    cache.populate(aa, int(scores[aa]))
                    populated += 1
        else:
            if not cache.seeded:
                continue
            _read(fs)
            cache.replenish(fs.topology.scores_from_bitmap(fs.metafile.bitmap))
            refreshed += 1
        fs.keeper.recompute(fs.metafile.bitmap)
    return {"heap_aas_populated": populated, "hbps_caches_refreshed": refreshed}
