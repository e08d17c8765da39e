"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload at a tiny size, untraced and traced, and checks
that every metric ``BENCHMARK.json`` names is reported with its unit,
that the traced run restores every wrapped entry point and reproduces
the untraced digest, that ``aged-overwrite`` reproduces the macro
bench unit's figures at 40 CPs with seeds 42/777, that the compare
verdicts follow their rule, and that the command fails without the
program's source.  Also collectable by pytest when named explicitly.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (path set up above)

sys.path.insert(0, run.SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny_runs(name: str):
    wl = workloads.WORKLOADS[name](3, tiny=True)
    plain, traced, failure, tracer = run.run_repeats(wl, 0.0, traced=True)
    assert failure is None, f"{name}: {failure['error']}"
    return wl, plain, traced, tracer


def test_every_metric_reported_with_unit():
    spec = run.load_spec()
    for name in workloads.WORKLOADS:
        wl, plain, traced, tracer = _tiny_runs(name)
        for clock in ("cpu", "wall"):
            e2e, _ = run.end_to_end(wl, plain, clock)
            for m in spec["end_to_end"]:
                assert m["name"] in e2e, f"{name}: end-to-end {m['name']} missing"
        layers = run.per_layer(plain, traced)
        for group, values in (("end_to_end", e2e), ("per_layer", layers)):
            listed = run.listed_metrics(spec[group], values)
            assert list(listed) == [m["name"] for m in spec[group]], name
            for metric, (value, unit) in listed.items():
                assert math.isfinite(value) and unit, (name, metric)
        assert layers["fs.run_cp.calls"] > 0 and layers["trace_overhead_frac"] != 0, name
        # Traced and untraced repeats replay the same simulated history.
        assert {r["digest"] for r in plain + traced} == {plain[0]["digest"]}, name
        assert wl.verify(plain[-1]["state"]) == [], name


def test_wrappers_removed_after_traced_run():
    _, _, _, tracer = _tiny_runs("tier-churn")
    assert len(tracer.restored) >= len(tracing.BOUNDARIES)
    for owner, attr, original in tracer.restored:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still wrapped"


def test_macro_unit_identity():
    """The benchmark drives the program the figure benches measure."""
    from repro.bench.runner import MACRO_BASELINE

    wl = workloads.AgedOverwrite(0, n_cps=40, build_seed=42, run_seed=777)
    state = wl.setup()
    wl.measure(state, workloads.Recorder())
    _, sim, _ = wl.readout(state)
    assert round(sim["cpu_us_per_op"], 4) == 252.7025, sim
    assert round(sim["sim_capacity_ops"], 2) == 79144.45, sim
    assert math.isclose(sim["cpu_us_per_op"], MACRO_BASELINE["cpu_us_per_op"], rel_tol=1e-12)
    assert math.isclose(sim["sim_capacity_ops"], MACRO_BASELINE["capacity_ops"], rel_tol=1e-12)


def test_compare_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    faster = {s: 80.0 + s for s in range(10)}
    assert run.verdict(base, faster, "lower", 0.1)["verdict"] == "improved"
    assert run.verdict(base, base, "lower", 0.1)["verdict"] == "no worse"
    slower = {s: 130.0 + s for s in range(10)}
    assert run.verdict(base, slower, "lower", 0.1)["verdict"] == "worse"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in range(10)}
    assert run.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    v = run.verdict(base, faster, "lower", 0.1)
    assert v["wins"] == v["pairs"] == 10
    clean, failing = dict.fromkeys(range(10), 0.0), dict.fromkeys(range(10), 0.1)
    assert run.verdict(clean, failing, "lower", 0.0)["verdict"] == "worse"


def test_fails_without_program_source():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "aged-overwrite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:  # report every test, then exit non-zero
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
