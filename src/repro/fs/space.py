"""AA spaces: the free-space runtime every VBN space shares.

Every WAFL file-system instance runs the same free-space machinery
(paper sections 2.5 and 3.3-3.4), whether its VBN space is one RAID
group of the aggregate (RAID-aware heap cache), a natively redundant
object store, or a FlexVol's virtual space (both RAID-agnostic HBPS
caches): a bitmap metafile, per-AA scores, an AA cache or a baseline
source, a write allocator, and a delayed-free log applied at CP
boundaries.  :class:`AASpace` owns that lifecycle once, with
RAID-agnostic defaults (linear allocator, self-replenishing HBPS
source, no media follow-up).  Subclasses override only what really
differs between spaces:

* :meth:`AASpace._make_allocator` — which allocator walks the space;
* :attr:`AASpace.replenishes` — whether the cache source may refill
  itself from a background bitmap walk;
* :meth:`AASpace._after_free` — media follow-up to applied frees (the
  SSD trim).

``read_metafile`` is deliberately *not* shared: a RAID group
reconstructs damaged metafile blocks from parity, an object store has
no local redundancy, and a FlexVol sees only the damage its
aggregate's RAID could not fix.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from ..bitmap.metafile import BitmapMetafile
from ..common.config import SimConfig
from ..core.aa import AATopology
from ..core.allocator import LinearAllocator
from ..core.cache import CacheSource, make_aa_cache
from ..core.delayed_frees import DelayedFreeLog
from ..core.policies import AASource, BitmapWalkSource, LinearScanSource, RandomSource
from ..core.score import ScoreKeeper

if TYPE_CHECKING:
    from .aggregate import StoreCPReport

__all__ = ["AASpace", "PolicyKind"]


class PolicyKind(enum.Enum):
    """AA selection policy for a store (section 4.1 comparisons)."""

    #: The paper's AA cache (max-heap or HBPS depending on topology).
    CACHE = "cache"
    #: "AA cache disabled": random AA selection.
    RANDOM = "random"
    #: First-fit cursor baseline (extension).
    LINEAR_SCAN = "linear"


class AASpace:
    """One allocation instance: metafile, scores, cache, allocator.

    The attributes every consumer reads (``topology``, ``metafile``,
    ``delayed_frees``, ``keeper``, ``cache``, ``source``,
    ``allocator``) keep their names across :meth:`enter_degraded` and
    :meth:`adopt_cache`, which rebind them in place.
    """

    #: True when the cache source refills itself from a background
    #: bitmap walk once selections drain it (RAID-agnostic HBPS caches,
    #: section 3.3.2).  RAID-aware heaps learn unknown AAs only from
    #: the mount-time background rebuild.
    replenishes = True

    def __init__(
        self,
        topology: AATopology,
        *,
        policy: PolicyKind,
        config: SimConfig | None,
        seed: int | np.random.Generator | None,
        where: str,
    ) -> None:
        self.sim_config = config if config is not None else SimConfig.default()
        self._batch_flush = not self.sim_config.allocator.scalar_bitmap_flush
        self.topology = topology
        self.metafile = BitmapMetafile(topology.nblocks)
        self.delayed_frees = DelayedFreeLog()
        self.keeper = ScoreKeeper(topology, self.metafile.bitmap)
        self.policy = policy
        if policy is PolicyKind.CACHE:
            cache = self.make_cache(self.keeper.scores)
            self._bind(self._cache_source(cache), cache)
        elif policy is PolicyKind.RANDOM:
            self._bind(RandomSource(topology.num_aas, seed), None)
        else:
            self._bind(LinearScanSource(topology.num_aas), None)
        #: When set, each CP applies delayed frees for at most this many
        #: metafile blocks, chosen fullest-first by the log's HBPS (the
        #: paper's "delayed-free scores" use of HBPS); None = apply all.
        self.free_budget_blocks: int | None = None
        #: Iron/faults addressing label (matches Iron's ``where``).
        self.where = where
        #: Attached :class:`repro.faults.FaultInjector` (None = no faults).
        self.injector = None
        #: True while allocation runs on the direct bitmap walk (cache
        #: offline during repair; see :meth:`enter_degraded`).
        self.degraded_alloc = False

    @property
    def nblocks(self) -> int:
        """VBN space size."""
        return self.topology.nblocks

    @property
    def free_count(self) -> int:
        """Free blocks, net of the allocator's pending-span batch."""
        return self.metafile.free_count - self.allocator.pending_count

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _make_allocator(self, source: AASource):
        """The write allocator for this space, bound to ``source``."""
        return LinearAllocator(
            self.topology, self.metafile, source, self.keeper,
            batch_flush=self._batch_flush,
        )

    def _after_free(self, freed: np.ndarray) -> None:
        """Media follow-up to the local VBNs just freed (no-op)."""

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------
    def make_cache(self, scores: np.ndarray):
        """A fresh AA cache for this space's topology, tuned by its
        :class:`~repro.common.config.SimConfig`."""
        return make_aa_cache(self.topology, scores, config=self.sim_config)

    def _cache_source(self, cache) -> CacheSource:
        if not self.replenishes:
            return CacheSource(cache)
        # Close over the metafile and topology, not ``self``: a bound
        # method would make every space a reference cycle that only the
        # cyclic collector frees.
        metafile, topology = self.metafile, self.topology

        def replenish() -> np.ndarray:
            # The background replenish walks every bitmap metafile block.
            metafile.note_scan_read()
            return topology.scores_from_bitmap(metafile.bitmap)

        return CacheSource(cache, replenish)

    def _bind(self, source: AASource, cache) -> None:
        """Install ``source``/``cache`` behind a new allocator and reset
        the per-CP counter baselines (the new allocator starts at 0)."""
        self.source = source
        self.cache = cache
        self.allocator = self._make_allocator(source)
        self._last_cache_ops = 0
        self._last_aa_switches = 0
        self._last_spans = 0

    def attach_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this space's
        read paths."""
        self.injector = injector

    def enter_degraded(self) -> None:
        """Serve allocations from a direct bitmap walk while the AA
        cache is offline (being rebuilt after damage).  The current AA
        is released; no allocation fails while degraded."""
        self.allocator.release()
        self._bind(BitmapWalkSource(self.topology, self.metafile), None)
        self.degraded_alloc = True

    def adopt_cache(self, cache) -> None:
        """Install a freshly built (possibly TopAA-seeded) cache after a
        remount or repair, with a new allocator bound to it.

        The score keeper is rebuilt from the bitmap as a side effect;
        in WAFL that bookkeeping is restored lazily per-AA and does not
        gate the first CP, so mount-time measurements charge only the
        cache-build I/O (see :mod:`repro.fs.mount`).
        """
        self.keeper = ScoreKeeper(self.topology, self.metafile.bitmap)
        self._bind(self._cache_source(cache), cache)
        self.degraded_alloc = False

    # ------------------------------------------------------------------
    # CP boundary pieces
    # ------------------------------------------------------------------
    def apply_frees(self) -> int:
        """Apply this space's delayed frees (all of them, or the
        ``free_budget_blocks`` fullest metafile blocks); returns the
        number of blocks freed."""
        if self.free_budget_blocks is None:
            freed = self.delayed_frees.apply_all(self.metafile)
        else:
            freed = self.delayed_frees.apply_best(
                self.metafile, self.free_budget_blocks
            )
        if freed.size == 0:
            return 0
        self.keeper.note_free(freed)
        self._after_free(freed)
        return int(freed.size)

    def drain_counters(self, report: "StoreCPReport") -> None:
        """Add the metafile blocks dirtied, cache operations, AA
        switches and VBN span of the CP just ended to ``report``."""
        report.metafile_blocks += self.metafile.drain_dirty()
        ops = self.cache.maintenance_ops if self.cache is not None else 0
        switches = len(self.allocator.selected_aa_scores)
        spans = self.allocator.spanned_blocks
        report.cache_ops += ops - self._last_cache_ops
        report.aa_switches += switches - self._last_aa_switches
        report.spanned_blocks += spans - self._last_spans
        self._last_cache_ops = ops
        self._last_aa_switches = switches
        self._last_spans = spans

    def selected_aa_free_fractions(self) -> np.ndarray:
        """Free fraction of each AA at the moment it was selected (the
        section 4.1 trace)."""
        cap = self.topology.aa_blocks
        return np.asarray(
            [s / cap for s in self.allocator.selected_aa_scores], dtype=np.float64
        )
