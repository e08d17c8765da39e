"""Tests for the parallel benchmark runner: unit planning, process-pool
vs serial determinism (the JSON documents must be byte-identical once
timing/host fields are stripped), result persistence, and the baseline
regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import (
    ALL_EXPERIMENTS,
    MACRO_BASELINE,
    SCHEMA,
    UnitSpec,
    compare_to_baseline,
    plan_units,
    run_bench,
    run_unit,
    strip_timing,
    write_results,
)

#: Small fast subset used for the expensive serial-vs-parallel check.
FAST_EXPERIMENTS = ["fig9", "macro"]


class TestPlanning:
    def test_covers_every_experiment_by_default(self):
        units = plan_units(quick=True)
        assert {u.experiment for u in units} == set(ALL_EXPERIMENTS)

    def test_plan_is_deterministic(self):
        assert plan_units(quick=True, seed=9) == plan_units(quick=True, seed=9)

    def test_canonical_seeds_match_figures(self):
        by_key = {u.key: u for u in plan_units(quick=True)}
        assert by_key["fig6/both caches"].seed == 42
        assert by_key["fig7/oltp"].seed == 24
        assert by_key["fig8/HDD-sized AA (4k stripes)"].seed == 99

    def test_base_seed_derives_distinct_per_unit_seeds(self):
        units = plan_units(quick=True, seed=7, experiments=["fig6"])
        seeds = [u.seed for u in units]
        assert len(set(seeds)) == len(seeds)
        again = plan_units(quick=True, seed=7, experiments=["fig6"])
        assert seeds == [u.seed for u in again]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            plan_units(experiments=["fig99"])


class TestDeterminism:
    def test_parallel_json_identical_to_serial_modulo_timing(self, tmp_path):
        serial = run_bench(quick=True, workers=1, experiments=FAST_EXPERIMENTS)
        parallel = run_bench(quick=True, workers=2, experiments=FAST_EXPERIMENTS)
        a = json.dumps(strip_timing(serial), indent=2, sort_keys=True)
        b = json.dumps(strip_timing(parallel), indent=2, sort_keys=True)
        assert a == b
        # The stripped documents really dropped the varying fields...
        assert "wall_s" not in a and '"host"' not in a
        # ...and the full documents carry them.
        assert "wall_s" in json.dumps(serial)

        # The persisted documents are byte-identical too.
        s_path = write_results(serial, str(tmp_path / "serial.json"))
        p_path = write_results(parallel, str(tmp_path / "parallel.json"))
        sdoc = json.loads(open(s_path, encoding="utf-8").read())
        pdoc = json.loads(open(p_path, encoding="utf-8").read())
        assert json.dumps(strip_timing(sdoc), sort_keys=True) == json.dumps(
            strip_timing(pdoc), sort_keys=True
        )

        # Regression gate: identical runs have no drifted metrics, and
        # a perturbed metric is caught.
        assert compare_to_baseline(parallel, serial) == []
        mutated = json.loads(json.dumps(serial))
        unit = mutated["units"]["macro/random-overwrite"]
        unit["metrics"]["cpu_us_per_op"] *= 1.01
        problems = compare_to_baseline(mutated, serial)
        assert problems and "cpu_us_per_op" in problems[0]

    def test_trajectory_document_shape(self, tmp_path):
        doc = run_bench(quick=True, workers=1, experiments=["fig9"])
        assert doc["schema"] == SCHEMA
        assert doc["quick"] is True
        assert set(doc["units"]) == {
            "fig9/HDD-sized AA (4k stripes)",
            "fig9/SMR AA (zone + AZCS aligned)",
        }
        for res in doc["units"].values():
            assert res["timing"]["wall_s"] > 0
            assert res["metrics"]["drive_mbps"] > 0
        path = write_results(doc, str(tmp_path / "BENCH.json"))
        assert path == str(tmp_path / "BENCH.json")
        assert json.loads((tmp_path / "BENCH.json").read_text())["schema"] == SCHEMA
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH.json"]


class TestUnits:
    def test_macro_unit_reports_phase_timing(self):
        res = run_unit(UnitSpec("macro", "random-overwrite", True, 42))
        assert res["timing"]["age_wall_s"] > 0
        assert res["timing"]["measure_wall_s"] > 0
        assert res["metrics"]["capacity_ops"] > 0
        assert set(MACRO_BASELINE) >= {"measure_wall_s", "capacity_ops"}

    def test_audited_unit_runs_the_invariant_auditor(self):
        res = run_unit(UnitSpec("fig9", "HDD-sized AA (4k stripes)", True, 3, True))
        assert res["audited"] is True
        assert res["metrics"]["blocks"] > 0


class TestBaselineGate:
    def test_missing_metric_reported(self):
        base = {"units": {"x": {"metrics": {"a": 1.0, "b": 2.0}}}}
        cur = {"units": {"x": {"metrics": {"a": 1.0}}}}
        problems = compare_to_baseline(cur, base)
        assert problems == ["missing metric units.x.metrics.b (baseline 2)"]

    def test_rtol_allows_small_drift(self):
        base = {"units": {"x": {"metrics": {"a": 100.0}}}}
        cur = {"units": {"x": {"metrics": {"a": 100.0 + 1e-7}}}}
        assert compare_to_baseline(cur, base, rtol=1e-6) == []
        assert compare_to_baseline(cur, base, rtol=1e-12) != []
