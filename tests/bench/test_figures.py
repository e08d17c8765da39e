"""The paper's shape claims for Figures 6-10 (section 4), checked at
full size on one serial ``repro bench`` sweep of the figure units.

Every claim reads the unit payloads the runner produces, so what is
asserted here is exactly what ``repro bench`` prints and persists.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    FIG6_OFFERED,
    FIG8_OFFERED,
    FIGURE_TABLES,
    config_results,
    experiment_units,
    fig9_curves,
    figure_tables,
)
from repro.bench.runner import run_bench
from repro.sim import peak_throughput


@pytest.fixture(scope="module")
def doc():
    return run_bench(workers=1, experiments=list(FIGURE_TABLES))


def test_tables_render_every_figure(doc):
    text = "\n".join(figure_tables(doc))
    for title in ("Figure 6:", "Section 4.1", "Figure 7 (top)", "Figure 7 (bottom)",
                  "Figure 8:", "Section 4.3 SSD", "Figure 9:", "Section 4.3 SMR",
                  "Figure 10(A)", "Figure 10(B)"):
        assert title in text
    for headline in ("Peak-throughput gain", "fresh groups receive",
                     "WA ratio small/large", "aligned-AA drive-throughput gain"):
        assert headline in text


class TestFig6:
    """Section 4.1: AA cache benefit on an aged all-SSD aggregate."""

    @pytest.fixture(scope="class")
    def results(self, doc):
        return config_results(experiment_units(doc, "fig6"))

    def test_cache_selects_emptier_aas(self, results):
        # Paper: cache-selected AAs are much emptier than the aggregate
        # mean (61% vs 45%) while random selection tracks the mean (46%).
        both, neither = results["both caches"], results["neither (baseline)"]
        assert both.agg_selected_free > both.aggregate_free + 0.05
        assert abs(neither.agg_selected_free - neither.aggregate_free) < 0.08

    def test_write_amp_and_cpu(self, results):
        both = results["both caches"]
        # Paper: RAID-aware cache cuts SSD write amplification (1.77->1.46).
        assert both.write_amplification < results["FlexVol AA cache"].write_amplification
        # Paper: FlexVol cache cuts WAFL CPU per op (309->293 us/op).
        assert both.cpu_us_per_op < results["Aggregate AA cache"].cpu_us_per_op

    def test_capacity(self, results):
        both = results["both caches"]
        vol_only = results["FlexVol AA cache"]
        agg_only = results["Aggregate AA cache"]
        neither = results["neither (baseline)"]
        # Paper: the aggregate cache improves peak throughput; the
        # FlexVol cache's benefit is CPU-side (its throughput gain needs
        # a CPU-bound regime, see EXPERIMENTS.md), so its mechanism is
        # asserted directly and it must not hurt capacity.
        assert both.capacity_ops > neither.capacity_ops
        assert agg_only.capacity_ops > neither.capacity_ops
        assert vol_only.cpu_us_per_op < neither.cpu_us_per_op * 0.99
        assert vol_only.capacity_ops > neither.capacity_ops * 0.97
        # Paper headline: both caches beat neither by a solid
        # double-digit margin (24% + 8% in the paper's testbed).
        assert both.capacity_ops / neither.capacity_ops - 1 > 0.10

    def test_latency_below_the_knee(self, results):
        # Latency at a common load the cached system absorbs but the
        # baseline cannot (paper: 0.56 ms vs 4.6 ms at 12k ops/s/client).
        both_curve = results["both caches"].curve(FIG6_OFFERED)
        pre_knee = [i for i, p in enumerate(both_curve)
                    if p.achieved_per_client == p.offered_per_client]
        idx = pre_knee[-1] if pre_knee else len(FIG6_OFFERED) - 1
        neither_curve = results["neither (baseline)"].curve(FIG6_OFFERED)
        assert both_curve[idx].latency_ms < neither_curve[idx].latency_ms


class TestFig7:
    """Section 4.2: OLTP across differently aged RAID groups."""

    @pytest.fixture(scope="class")
    def m(self, doc):
        return experiment_units(doc, "fig7")["oltp"]["metrics"]

    def test_blocks_even_across_disks(self, m):
        # Claim 1: blocks even across disks with the same fragmentation.
        for gi, per in enumerate(m["blocks_per_disk_per_s"]):
            assert max(per) / max(min(per), 1) < 1.1, f"RG{gi} disks uneven: {per}"

    def test_fresh_groups_get_more_blocks(self, m):
        # Claim 2: more blocks to the fresh groups.
        blocks = m["blocks_per_s"]
        fresh = sum(blocks[g] for g in m["fresh_groups"]) / len(m["fresh_groups"])
        aged = sum(blocks[g] for g in m["aged_groups"]) / len(m["aged_groups"])
        assert fresh > 1.2 * aged

    def test_aged_groups_write_fewer_blocks_per_tetris(self, m):
        # Claim 3: aged groups write fewer blocks per tetris (their
        # tetrises are less efficient), i.e. a marginally higher tetris
        # rate per block written.
        def efficiency(groups):
            return (sum(m["blocks_per_s"][g] for g in groups)
                    / sum(m["tetrises_per_s"][g] for g in groups))

        assert efficiency(m["aged_groups"]) < efficiency(m["fresh_groups"])

    def test_aged_groups_write_more_partial_stripes(self, m):
        # Claim 4: aged groups suffer more partial stripes.
        aged, fresh = m["aged_groups"], m["fresh_groups"]
        aged_partial = (sum(m["partials"][g] for g in aged)
                        / sum(m["stripes"][g] for g in aged))
        fresh_partial = (sum(m["partials"][g] for g in fresh)
                         / max(sum(m["stripes"][g] for g in fresh), 1))
        assert aged_partial > fresh_partial


def test_fig8_large_aa_wins(doc):
    """Section 4.3: erase-unit-sized AAs on SSD beat HDD-sized AAs."""
    results = config_results(experiment_units(doc, "fig8"))
    small = results["HDD-sized AA (4k stripes)"]
    large = results["Large AA (2 erase units)"]
    # Paper shape: large AA wins throughput and latency; WA reduced
    # (paper: halved; the open-unit FTL model's reduction varies with
    # utilization but is always substantial and directionally identical).
    assert large.capacity_ops > 1.10 * small.capacity_ops
    assert small.write_amplification / large.write_amplification > 1.25
    pk_small = small.peak(FIG8_OFFERED)
    pk_large = large.peak(FIG8_OFFERED)
    assert pk_large.latency_ms < pk_small.latency_ms or (
        pk_large.achieved_per_client > pk_small.achieved_per_client
    )


def test_fig9_aligned_aa_avoids_checksum_rewrites(doc):
    """Section 4.3: zone-sized, AZCS-aligned AAs on SMR."""
    units = experiment_units(doc, "fig9")
    small = units["HDD-sized AA (4k stripes)"]["metrics"]
    aligned = units["SMR AA (zone + AZCS aligned)"]["metrics"]
    curves = fig9_curves(units)
    small_curve = curves["HDD-sized AA (4k stripes)"]
    aligned_curve = curves["SMR AA (zone + AZCS aligned)"]
    # Latency compared at the highest offered load both configs sustain.
    pre_knee = [i for i, p in enumerate(small_curve)
                if p.achieved_per_client == p.offered_per_client]
    idx = pre_knee[-1] if pre_knee else 0
    # Paper shape: the misaligned AA forces random checksum-block
    # rewrites behind the shingle pointer when switching AAs; the
    # aligned AA eliminates that class entirely (the remaining rewrites
    # are CP-boundary checksum updates common to both configs).
    assert small["rewrites"] > aligned["rewrites"]
    assert aligned["drive_mbps"] / small["drive_mbps"] - 1 > 0.02
    assert aligned_curve[idx].latency_ms <= small_curve[idx].latency_ms
    assert (peak_throughput(aligned_curve).achieved_per_client
            >= peak_throughput(small_curve).achieved_per_client)


def _fig10_series(doc: dict, unit: str) -> dict:
    """``{(x, TopAA?): {"blocks_read", "modeled_ms"}}``; x is the
    volume-size multiple of 32768 blocks (A) or the volume count (B)."""
    out = {}
    rows = experiment_units(doc, "fig10")[unit]["metrics"]["rows"]
    for x, path, blocks_read, modeled_ms in rows:
        if unit == "size":
            x = int(x.split()[0]) // 32768
        out[(x, path == "TopAA")] = {"blocks_read": blocks_read, "modeled_ms": modeled_ms}
    return out


def test_fig10a_vol_size(doc):
    """Section 4.4: first-CP cost vs FlexVol size."""
    series = _fig10_series(doc, "size")
    # TopAA: the mount component is flat in volume size (identical
    # block reads, near-identical modeled time); without TopAA the
    # bitmap walk grows linearly with capacity.
    assert series[(4, True)]["blocks_read"] == series[(32, True)]["blocks_read"]
    assert series[(32, True)]["modeled_ms"] < 1.3 * series[(4, True)]["modeled_ms"]
    assert series[(32, False)]["blocks_read"] > 4 * series[(4, False)]["blocks_read"]
    # At the largest size the TopAA first CP is far cheaper.
    assert series[(32, True)]["modeled_ms"] < 0.5 * series[(32, False)]["modeled_ms"]


def test_fig10b_vol_count(doc):
    """Section 4.4: first-CP cost vs FlexVol count."""
    series = _fig10_series(doc, "count")
    # No TopAA: the walk grows linearly with volume count; TopAA reads
    # only 2 blocks per volume (plus 1 per RAID group), more than an
    # order of magnitude less I/O at every point.
    assert series[(32, False)]["blocks_read"] > 4 * series[(4, False)]["blocks_read"]
    for n_vols in (4, 8, 16, 32):
        assert (
            series[(n_vols, False)]["blocks_read"]
            > 10 * series[(n_vols, True)]["blocks_read"]
        )
        assert series[(n_vols, True)]["modeled_ms"] < series[(n_vols, False)]["modeled_ms"]
    # The paper's headline: with TopAA the first CP is much faster on
    # the big configuration.
    assert series[(32, True)]["modeled_ms"] < 0.35 * series[(32, False)]["modeled_ms"]
