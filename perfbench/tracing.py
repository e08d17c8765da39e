"""Span tracing from outside the program: wrap each layer's public
entry points, record spans in memory, restore the originals after.

A span is ``(label, start_s, end_s, parent)``: ``label`` indexes
:attr:`Tracer.labels` (``"<boundary>:<qualname>"``), ``parent`` is the
index of the enclosing span or -1.  A boundary's self time is the sum
of its spans' durations minus the part their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: ``(boundary, module, qualname)``.  ``Class.method`` wraps the method
#: on that class and on every subclass that defines its own copy;
#: a bare name wraps a module function at every module binding it.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("workloads.next_batch", "repro.workloads.base", "Workload.next_batch"),
    ("fs.run_cp", "repro.fs.cp", "CPEngine.run_cp"),
    ("fs.stage_commit", "repro.fs.flexvol", "FlexVol.stage_writes"),
    ("fs.stage_commit", "repro.fs.flexvol", "FlexVol.commit_writes"),
    ("fs.cp_boundary", "repro.fs.aggregate", "RAIDStore.cp_boundary"),
    ("fs.cp_boundary", "repro.fs.aggregate", "LinearStore.cp_boundary"),
    ("fs.cp_boundary", "repro.tiering.store", "TieredStore.cp_boundary"),
    ("fs.cp_boundary", "repro.fs.flexvol", "FlexVol.cp_boundary"),
    ("fs.price_cp_writes", "repro.fs.aggregate", "RAIDGroupRuntime.price_cp_writes"),
    ("core.allocate", "repro.fs.aggregate", "RAIDStore.allocate"),
    ("core.allocate", "repro.fs.aggregate", "LinearStore.allocate"),
    ("core.cache", "repro.core.heap_cache", "RAIDAwareAACache.select"),
    ("core.cache", "repro.core.heap_cache", "RAIDAwareAACache.consume"),
    ("core.cache", "repro.core.heap_cache", "RAIDAwareAACache.refill"),
    ("core.cache", "repro.core.heap_cache", "RAIDAwareAACache.apply_changes"),
    ("core.cache", "repro.core.hbps_cache", "RAIDAgnosticAACache.select"),
    ("core.cache", "repro.core.hbps_cache", "RAIDAgnosticAACache.consume"),
    ("core.cache", "repro.core.hbps_cache", "RAIDAgnosticAACache.refill"),
    ("core.cache", "repro.core.hbps_cache", "RAIDAgnosticAACache.apply_changes"),
    ("core.delayed_frees", "repro.core.delayed_frees", "DelayedFreeLog.add"),
    ("core.delayed_frees", "repro.core.delayed_frees", "DelayedFreeLog.apply_best"),
    ("core.delayed_frees", "repro.core.delayed_frees", "DelayedFreeLog.apply_all"),
    ("core.score_flush", "repro.core.score", "ScoreKeeper.flush"),
    ("bitmap.metafile", "repro.bitmap.metafile", "BitmapMetafile.allocate"),
    ("bitmap.metafile", "repro.bitmap.metafile", "BitmapMetafile.free"),
    ("bitmap.metafile", "repro.bitmap.metafile", "BitmapMetafile.drain_dirty"),
    ("bitmap.metafile", "repro.bitmap.bitmap", "Bitmap.free_in_range"),
    ("raid.analyze", "repro.raid.parity", "analyze_raid_writes"),
    ("raid.analyze", "repro.raid.tetris", "count_tetrises"),
    ("devices.write", "repro.devices.base", "Device.write_blocks"),
    ("devices.write", "repro.devices.base", "Device.trim"),
    ("traffic.step", "repro.traffic.engine", "TrafficEngine.step"),
    ("cluster.place", "repro.cluster.scheduler", "FilterScheduler.place"),
    ("cluster.current_stats", "repro.cluster.cluster", "Cluster.current_stats"),
    ("cluster.evaluate", "repro.cluster.cluster", "Cluster.evaluate"),
    ("cluster.shard_build", "repro.cluster.shard", "ShardRuntime.__init__"),
    ("cluster.run_epoch", "repro.cluster.shard", "ShardRuntime.run_epoch"),
    ("tiering.migrate", "repro.tiering.migration", "migrate_volume_tier"),
    ("tiering.rebalance", "repro.tiering.migration", "rebalance_tiers"),
    ("tiering.allocate", "repro.tiering.store", "TieredStore.allocate"),
    ("tiering.allocate", "repro.tiering.store", "TieredStore.allocate_in"),
    ("analysis.audit", "repro.analysis.auditor", "InvariantAuditor.before_cp"),
    ("analysis.audit", "repro.analysis.auditor", "InvariantAuditor.after_cp"),
)

#: Boundary names in report order.
BOUNDARY_NAMES: tuple[str, ...] = tuple(dict.fromkeys(b for b, _, _ in BOUNDARIES))


def _owners(cls: type, attr: str) -> list[type]:
    """``cls`` and its subclasses that define ``attr`` themselves."""
    seen: list[type] = []
    todo = [cls]
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.append(c)
        todo.extend(c.__subclasses__())
    return [c for c in seen if attr in c.__dict__]


class Tracer:
    """Patches :data:`BOUNDARIES` on :meth:`install`, restores them on
    :meth:`uninstall`; spans accumulate in :attr:`spans`."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: What the last :meth:`uninstall` put back, as
        #: ``(owner, attribute, original)``.
        self.restored: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, label: str):
        idx = len(self.labels)
        self.labels.append(label)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent)

        return traced

    def _set(self, owner, attr: str, original, new) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for boundary, modname, qualname in BOUNDARIES:
            module = importlib.import_module(modname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                for owner in _owners(getattr(module, cls_name), attr):
                    fn = owner.__dict__[attr]
                    label = f"{boundary}:{owner.__name__}.{attr}"
                    self._set(owner, attr, fn, self._wrap(fn, label))
            else:
                fn = getattr(module, qualname)
                wrapped = self._wrap(fn, f"{boundary}:{qualname}")
                for mod in self._binding_modules(fn, qualname):
                    self._set(mod, qualname, fn, wrapped)

    @staticmethod
    def _binding_modules(fn, name: str) -> list:
        """Every loaded ``repro`` module whose ``name`` is ``fn``."""
        return [mod for modname, mod in list(sys.modules.items())
                if mod is not None and modname.split(".")[0] == "repro"
                and getattr(mod, name, None) is fn]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self.restored = self._patched
        self._patched = []
        self._stack.clear()

    # ------------------------------------------------------------------
    def boundary_totals(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per boundary ``{"calls", "self_ms"}``, and calls per label."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals: dict[str, dict[str, float]] = {
            b: {"calls": 0, "self_ms": 0.0} for b in BOUNDARY_NAMES
        }
        label_calls = dict.fromkeys(self.labels, 0)
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            idx, t0, t1, _ = span
            label = self.labels[idx]
            b = totals[label.split(":", 1)[0]]
            b["calls"] += 1
            b["self_ms"] += (t1 - t0 - child[i]) * 1e3
            label_calls[label] += 1
        return totals, label_calls

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one object each)."""
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                idx, t0, t1, parent = span
                f.write(json.dumps({
                    "id": i, "name": self.labels[idx], "start_s": t0,
                    "end_s": t1, "parent": parent,
                }) + "\n")
