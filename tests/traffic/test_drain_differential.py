"""Differential test of the SFQ backend drain.

The batched :meth:`TrafficEngine._drain_vec` (bulk rounds, contended
runs over the chunk FIFO) must reproduce the scalar :meth:`_drain`
oracle bit for bit.  Both engines are fed the identical synthetic
backlog — several CP chunks per tenant, occupancies drawn from a small
set with ``0.0`` and repeats (forcing tag ties and the index
tie-break), admission gaps that leave the server idle — and drained
through the same sequence of ``until_us`` windows, so backlog carried
from one window into the next is covered.  After every window the
per-tenant completion and latency arrays (in service order), every
``vfinish``, the virtual time and the server clock must be equal, and
a last drain past every admit serves the whole backlog.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as hs

from repro.traffic import PoissonArrivals, TenantSpec, TrafficEngine
from repro.traffic.engine import _Chunk
from repro.workloads import UniformOverwriteMix

OCCUPANCIES = (0.0, 0.5, 1.0, 1.0, 2.5)
EXTRA_LATENCY = (0.0, 1.0, 3.0)
ADMIT_GAPS = (0.0, 0.0, 0.5, 1.0, 2.5, 40.0)
QUEUE_WAITS = (0.0, 0.5, 3.0)


@hs.composite
def chunk(draw, tail: float):
    """One CP's riders of one tenant, admitted FIFO from ``tail``."""
    gaps = draw(hs.lists(hs.sampled_from(ADMIT_GAPS), min_size=1, max_size=10))
    waits = draw(hs.lists(hs.sampled_from(QUEUE_WAITS),
                          min_size=len(gaps), max_size=len(gaps)))
    occ = draw(hs.sampled_from(OCCUPANCIES))
    lat = occ + draw(hs.sampled_from(EXTRA_LATENCY))
    admits = []
    for gap in gaps:
        tail += gap
        admits.append(tail)
    arrivals = [a - w for a, w in zip(admits, waits)]
    return arrivals, admits, occ, lat


@hs.composite
def backlog_plan(draw):
    """``[(until_us, [(tenant, chunk), ...]), ...]``: the chunks that
    ride before each window's drain, for 2-6 tenants."""
    n_tenants = draw(hs.integers(2, 6))
    window_us = draw(hs.sampled_from((4.0, 15.0, 60.0)))
    tails = [0.0] * n_tenants
    plan = []
    for w in range(draw(hs.integers(1, 5))):
        until_us = (w + 1) * window_us
        riders = []
        for k in range(n_tenants):
            for _ in range(draw(hs.integers(0, 3))):
                start = max(tails[k], w * window_us)
                c = draw(chunk(start))
                tails[k] = c[1][-1]
                riders.append((k, c))
        plan.append((until_us, riders))
    return n_tenants, plan


def make_engine(n_tenants: int, vectorized: bool) -> TrafficEngine:
    # The drain never touches the simulator; the engine only checks
    # that each tenant's volume exists.
    sim = SimpleNamespace(vols={"v": None})
    tenants = [
        TenantSpec(
            name=f"t{k}",
            volume="v",
            arrivals=PoissonArrivals(1_000.0, seed=k),
            mix=UniformOverwriteMix(1_000, seed=k),
        )
        for k in range(n_tenants)
    ]
    return TrafficEngine(sim, tenants, cp_interval_us=1.0, vectorized=vectorized)


def enqueue(engine: TrafficEngine, k: int, c) -> None:
    arrivals, admits, occ, lat = c
    st = engine.states[k]
    if engine.vectorized:
        st.backlog.append(_Chunk(np.asarray(arrivals), np.asarray(admits), occ, lat))
    else:
        st.backend.extend((r, a, occ, lat) for r, a in zip(arrivals, admits))


def assert_same_state(scalar: TrafficEngine, batched: TrafficEngine) -> None:
    assert batched._vtime == scalar._vtime
    assert batched._server_free_us == scalar._server_free_us
    for ref, st in zip(scalar.states, batched.states):
        assert st.vfinish == ref.vfinish
        assert st.backend_pending() == ref.backend_pending()
        assert np.array_equal(st.complete_array(), ref.complete_array())
        assert np.array_equal(st.latency_array(), ref.latency_array())


@seed(20240917)
@settings(max_examples=150, deadline=None, database=None)
@given(backlog_plan())
def test_vectorized_drain_matches_scalar_oracle(plan):
    n_tenants, windows = plan
    scalar = make_engine(n_tenants, vectorized=False)
    batched = make_engine(n_tenants, vectorized=True)
    for until_us, riders in windows:
        for k, c in riders:
            enqueue(scalar, k, c)
            enqueue(batched, k, c)
        scalar._drain(until_us)
        batched._drain_vec(until_us)
        assert_same_state(scalar, batched)
    # Past every admit: both serve the whole remaining backlog.
    scalar._drain(1e6)
    batched._drain_vec(1e6)
    assert_same_state(scalar, batched)
    assert all(st.backend_pending() == 0 for st in batched.states)
