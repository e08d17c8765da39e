"""Tests for the command-line interface and bench harness helpers."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bench import (
    RESULTS_DIR,
    ConfigResult,
    fmt_table,
    popcount_audit,
    set_bitmap_checks,
)
from repro.cli import main
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import BitmapError
from repro.fs import WaflSim


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICPP 2018" in out
        assert "BLOCK_SIZE" in out
        assert "fig6" not in out

    def test_fig10_quick(self, capsys, tmp_path):
        assert main(["bench", "--quick", "--experiments", "fig10",
                     "--out", str(tmp_path / "run.json")]) == 0
        out = capsys.readouterr().out
        assert "Figure 10(A)" in out
        assert "Figure 10(B)" in out
        assert "TopAA" in out

    def test_fig9_quick(self, capsys, tmp_path):
        def results_dir():
            if not os.path.isdir(RESULTS_DIR):
                return {}
            return {e.name: e.stat().st_mtime_ns for e in os.scandir(RESULTS_DIR)}

        before = results_dir()
        out_path = tmp_path / "run.json"
        assert main(["bench", "--quick", "--experiments", "fig9",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 9:" in out
        assert "aligned-AA drive-throughput gain" in out
        # The run writes its one document and nothing under the results dir.
        assert json.loads(out_path.read_text())["units"]
        assert os.listdir(tmp_path) == ["run.json"]
        assert results_dir() == before

    def test_unknown_command_exits(self):
        # The figures run only through `repro bench`.
        for command in ("definitely-not-a-command", "fig6", "all"):
            with pytest.raises(SystemExit):
                main([command])

    def test_lint_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_lint_reports_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        assert "D101" in capsys.readouterr().out

    def test_traffic_quick(self, capsys):
        assert main(
            ["traffic", "--quick", "--tenants", "2", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-tenant results" in out
        assert "t0-aggressor" in out
        assert "t1-victim" in out
        assert "p99 ms" in out
        assert "calibrated capacity" in out

    def test_traffic_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["traffic", "--scenario", "bogus"])

    def test_audit_quick(self, capsys):
        assert main(["audit", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "audit PASSED" in out
        assert "chaos sweep" in out


class TestHarness:
    def test_fmt_table_alignment(self):
        t = fmt_table(["a", "bee"], [[1, 2.5], [333, 0.001]], title="T")
        lines = t.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_fmt_table_thousands(self):
        t = fmt_table(["x"], [[123456.0]])
        assert "123,456" in t

    def test_config_result_capacity(self):
        r = ConfigResult(
            label="x", cpu_us_per_op=200.0, device_us_per_op=20.0,
            agg_selected_free=0, vol_selected_free=0, aggregate_free=0,
            write_amplification=1, metafile_blocks_per_op=0,
            full_stripe_fraction=0, mean_chain_length=0,
        )
        # 20 cores / 200us = 100k; device 1e6/20 = 50k -> device-bound.
        assert r.capacity_ops == pytest.approx(50_000)

    def test_config_result_curve_monotone_latency(self):
        r = ConfigResult(
            label="x", cpu_us_per_op=100.0, device_us_per_op=10.0,
            agg_selected_free=0, vol_selected_free=0, aggregate_free=0,
            write_amplification=1, metafile_blocks_per_op=0,
            full_stripe_fraction=0, mean_chain_length=0,
        )
        pts = r.curve(np.linspace(100, 20000, 10))
        lats = [p.latency_ms for p in pts]
        assert lats == sorted(lats)

    @pytest.mark.parametrize("tier", [0, 1], ids=["ssd", "object"])
    def test_bitmap_helpers_reach_every_tier(self, tier):
        sim = WaflSim.build(
            AggregateSpec(
                tiers=(
                    TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=16384),
                    TierSpec(label="s3", media="object", raid="none", nblocks=32768),
                ),
                volumes=(VolumeDecl("v", logical_blocks=8192),),
            ),
            seed=0,
        )
        set_bitmap_checks(sim, False)
        instances = [fs for _, fs, _ in sim.store.physical_instances()]
        assert len(instances) == 2
        assert not any(fs.metafile.bitmap.check for fs in instances)
        popcount_audit(sim)
        instances[tier].metafile.bitmap._allocated += 5
        with pytest.raises(BitmapError):
            popcount_audit(sim)
