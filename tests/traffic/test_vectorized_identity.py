"""Byte-identity of the scalar and vectorized traffic pipelines.

The batch CP pipeline (``TrafficConfig.vectorized``) must be a pure
performance transformation: same seed, same scenario, bit-for-bit the
same summary, per-tenant latency percentiles, and MetricsLog series as
the scalar reference path it replaces.  Equality here is exact — no
tolerances — because every batched float expression was chosen to
reproduce the scalar evaluation order (np.add.accumulate chains,
np.maximum tail recurrences), not merely approximate it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.traffic.scenarios import SCENARIOS, run_traffic

SERIES_METRICS = ("achieved_ops_s", "p99_ms", "queue_depth")


def _series(run) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for st in run.engine.states:
        name = st.spec.name
        for metric in SERIES_METRICS:
            out[f"{name}.{metric}"] = np.asarray(
                run.sim.metrics.query(metric, tenant=name, default=[])
            )
    return out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestScalarVectorIdentity:
    def test_summary_is_byte_identical(self, scenario):
        docs = {}
        for vec in (False, True):
            run = run_traffic(scenario, quick=True, seed=7, vectorized=vec)
            docs[vec] = run.result.as_dict()
        assert json.dumps(docs[False], sort_keys=True) == json.dumps(
            docs[True], sort_keys=True
        )

    def test_metrics_series_are_byte_identical(self, scenario):
        series = {}
        for vec in (False, True):
            run = run_traffic(scenario, quick=True, seed=11, vectorized=vec)
            series[vec] = _series(run)
        assert set(series[False]) == set(series[True])
        for key, scalar in series[False].items():
            batched = series[True][key]
            assert scalar.shape == batched.shape, key
            assert np.array_equal(scalar, batched), key


class TestEngineStateIdentity:
    def test_per_tenant_raw_series_match(self):
        """Beyond the summary: the raw per-op arrays (arrival, rejection,
        completion, latency) the series are computed from must agree."""
        runs = {
            vec: run_traffic("noisy-neighbor", quick=True, seed=3, vectorized=vec)
            for vec in (False, True)
        }
        scalar_states = {st.spec.name: st for st in runs[False].engine.states}
        for st in runs[True].engine.states:
            ref = scalar_states[st.spec.name]
            assert np.array_equal(ref.arrivals_array(), st.arrivals_array())
            assert np.array_equal(ref.rejected_array(), st.rejected_array())
            assert np.array_equal(
                np.sort(ref.complete_array()), np.sort(st.complete_array())
            )
            assert np.array_equal(
                np.sort(ref.latency_array()), np.sort(st.latency_array())
            )
            assert ref.arrived_count() == st.arrived_count()
            assert ref.rejected_count() == st.rejected_count()
            assert ref.admitted == st.admitted


class TestLongBacklogIdentity:
    def test_backlog_spanning_many_chunks_matches_scalar(self):
        """160 CPs of noisy-neighbor: the aggressor's backlog grows to
        span dozens of CP chunks, as in long runs, so the contended
        drain keeps crossing chunk boundaries.  Summary and the raw
        per-op arrays, in service order, must match the scalar path."""
        runs = {
            vec: run_traffic(
                "noisy-neighbor", quick=True, seed=29, n_cps=160, vectorized=vec
            )
            for vec in (False, True)
        }
        assert json.dumps(runs[False].result.as_dict(), sort_keys=True) == (
            json.dumps(runs[True].result.as_dict(), sort_keys=True)
        )
        scalar, batched = runs[False].engine, runs[True].engine
        assert len(batched.states[0].backlog) >= 20
        assert batched._vtime == scalar._vtime
        assert batched._server_free_us == scalar._server_free_us
        for ref, st in zip(scalar.states, batched.states):
            assert st.vfinish == ref.vfinish
            assert st.backend_pending() == ref.backend_pending()
            for raw in ("arrivals_array", "rejected_array",
                        "complete_array", "latency_array"):
                assert np.array_equal(
                    getattr(ref, raw)(), getattr(st, raw)()
                ), (st.spec.name, raw)
