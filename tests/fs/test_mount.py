"""Unit tests for the TopAA mount path (paper section 3.4)."""

from __future__ import annotations

import pytest

from repro.fs import background_rebuild, export_topaa, simulate_mount
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


@pytest.fixture
def aged_sim():
    sim = small_ssd_sim()
    fill_volumes(sim, ops_per_cp=8192)
    wl = RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=3)
    sim.run(wl, 10)
    return sim


class TestExport:
    def test_image_shape(self, aged_sim):
        img = export_topaa(aged_sim)
        assert set(img.pages) == {"group:0", "vol:volA", "vol:volB"}
        assert img.total_blocks == 1 + 2 * 2

    def test_blocks_are_4k_plus_checksum_header(self, aged_sim):
        from repro.core import TOPAA_HEADER_BYTES

        img = export_topaa(aged_sim)
        assert len(img.pages["group:0"]) == 4096 + TOPAA_HEADER_BYTES
        assert all(
            len(img.pages[f"vol:{name}"]) == 8192 + TOPAA_HEADER_BYTES
            for name in ("volA", "volB")
        )


class TestMountPaths:
    def test_topaa_mount_reads_constant_blocks(self, aged_sim):
        img = export_topaa(aged_sim)
        rep = simulate_mount(aged_sim, img)
        assert rep.used_topaa
        assert rep.blocks_read == img.total_blocks
        assert rep.caches_built == 3

    def test_full_rebuild_reads_all_metafiles(self, aged_sim):
        expected = sum(
            g.metafile.metafile_block_count for g in aged_sim.store.groups
        ) + sum(v.metafile.metafile_block_count for v in aged_sim.vols.values())
        rep = simulate_mount(aged_sim, None)
        assert not rep.used_topaa
        assert rep.blocks_read == expected
        assert rep.modeled_read_us > 0

    def test_cps_run_after_topaa_mount(self, aged_sim):
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5)
        aged_sim.run(wl, 5)
        aged_sim.verify_consistency()

    def test_cps_run_after_full_rebuild(self, aged_sim):
        simulate_mount(aged_sim, None)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5)
        aged_sim.run(wl, 5)
        aged_sim.verify_consistency()

    def test_seeded_selection_quality(self, aged_sim):
        """AAs selected right after a TopAA mount are high quality —
        the whole point of persisting the best AAs."""
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        from repro.workloads import reset_measurement_state

        reset_measurement_state(aged_sim)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5)
        aged_sim.run(wl, 3)
        sel = aged_sim.store.selected_aa_free_fractions()
        overall_free = 1 - aged_sim.utilization
        assert sel.size > 0
        assert sel.mean() >= overall_free * 0.9


class TestBackgroundRebuild:
    def test_rebuild_completes_seeded_state(self, aged_sim):
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        rep = background_rebuild(aged_sim)
        assert rep["hbps_caches_refreshed"] == 2
        for vol in aged_sim.vols.values():
            assert not vol.cache.seeded
        for g in aged_sim.store.groups:
            assert g.cache.fully_populated

    def test_rebuild_then_cps_consistent(self, aged_sim):
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        background_rebuild(aged_sim)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=6)
        aged_sim.run(wl, 5)
        aged_sim.verify_consistency()

    def test_rebuild_noop_after_full_mount(self, aged_sim):
        simulate_mount(aged_sim, None)
        rep = background_rebuild(aged_sim)
        assert rep == {"heap_aas_populated": 0, "hbps_caches_refreshed": 0}


class TestTieredMount:
    """Every cache-backed instance of a tiered aggregate is exported,
    remounted and rebuilt — the RAID groups inside the tier members
    included, not only the FlexVols."""

    @pytest.fixture
    def tiered(self):
        from repro.tiering import build_tiered_sim

        sim = build_tiered_sim(quick=True)
        fill_volumes(sim, ops_per_cp=4096)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=3), 4)
        return sim

    @staticmethod
    def _spaces(sim):
        return [fs for _, fs, _ in sim.store.physical_instances()] + list(
            sim.vols.values()
        )

    def test_export_has_a_page_per_instance(self, tiered):
        img = export_topaa(tiered)
        groups = [where for where, _, _ in tiered.store.physical_instances()]
        assert groups == ["group:0", "group:1", "group:2"]
        assert set(img.pages) == set(groups) | {
            vol.where for vol in tiered.vols.values()
        }
        # One block per RAID group, two per FlexVol HBPS page.
        assert img.total_blocks == 3 * 1 + 3 * 2

    @pytest.mark.parametrize("use_topaa", [True, False], ids=["topaa", "walk"])
    def test_mount_rebuilds_every_member(self, tiered, use_topaa):
        from repro.analysis.auditor import audit_sim
        from repro.fs.iron import scan

        spaces = self._spaces(tiered)
        before = [fs.cache for fs in spaces]
        img = export_topaa(tiered) if use_topaa else None
        rep = simulate_mount(tiered, img)
        if use_topaa:
            assert rep.blocks_read == 3 * 1 + 3 * 2
        else:
            assert rep.blocks_read == sum(
                fs.metafile.metafile_block_count for fs in spaces
            )
        assert rep.caches_built == len(spaces) == 6
        assert rep.fallbacks == {}
        assert all(fs.cache is not old for fs, old in zip(spaces, before))
        if use_topaa:
            rebuilt = background_rebuild(tiered)
            assert rebuilt["hbps_caches_refreshed"] == 3
            assert all(g.cache.fully_populated for g in tiered.store.groups)
        tiered.run(RandomOverwriteWorkload(tiered, ops_per_cp=1024, seed=5), 4)
        assert audit_sim(tiered).ok
        assert scan(tiered).clean
        tiered.verify_consistency()


class TestCacheConfigReachesEverySpace:
    """``SimConfig.cache`` tunes the HBPS cache of every RAID-agnostic
    space — the object store and each FlexVol — at build time and
    whenever a mount or recovery rebuilds it."""

    @staticmethod
    def _sim():
        import dataclasses

        from repro.common.config import (
            AggregateSpec,
            CacheConfig,
            SimConfig,
            TierSpec,
            VolumeDecl,
        )
        from repro.fs import WaflSim

        cfg = dataclasses.replace(
            SimConfig.default(),
            cache=CacheConfig(hbps_bin_width=256, hbps_list_capacity=10),
        )
        spec = AggregateSpec(
            tiers=(TierSpec(label="s3", media="object", raid="none",
                            nblocks=32768 * 4),),
            volumes=(VolumeDecl("volA", logical_blocks=16384),
                     VolumeDecl("volB", logical_blocks=16384)),
        )
        # 256-block bins keep the 128-bin histogram within one TopAA page.
        sim = WaflSim.build(spec, config=cfg, seed=4)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=1), 3)
        return sim

    @pytest.mark.parametrize("path", ["build", "topaa-mount", "walk-mount", "exit-degraded"])
    def test_hbps_caches_follow_config(self, path):
        from repro.faults import escalate, exit_degraded

        sim = self._sim()
        spaces = [sim.store] + list(sim.vols.values())
        if path == "topaa-mount":
            simulate_mount(sim, export_topaa(sim))
        elif path == "walk-mount":
            simulate_mount(sim, None)
        elif path == "exit-degraded":
            escalate(sim, [fs.where for fs in spaces])
            assert all(fs.cache is None for fs in spaces)
            exit_degraded(sim)
        for fs in spaces:
            assert (fs.cache.hbps.bin_width, fs.cache.hbps.list_capacity) == (256, 10), fs.where
