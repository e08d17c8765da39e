"""The repository's benchmark: one command, four workloads.

Run one workload (what ``BENCHMARK.json`` names as the command)::

    python3 perfbench/run.py --workload aged-overwrite --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced repeats and reports the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(host, samples, workload-specific metrics) goes to
``perfbench/out/<workload>/``.  Any failed correctness check exits 1
and names the workload.

Compare two sets of records (one row per workload x metric)::

    python3 perfbench/run.py --compare BASE_DIR CHANGE_DIR

The smoke test is ``python3 perfbench/smoke.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: The seed runs default to, and the one kept back to re-check claims
#: on inputs no change was tuned against.
DEFAULT_SEED = 1
HELDOUT_SEED = 20261017

#: Workload-specific end-to-end metrics: printed and recorded, but not
#: in BENCHMARK.json, whose metrics every workload must report.
#: name -> (unit, better, bound)
EXTRA_METRICS = {
    "migration_ms_p50": ("ms", "lower", 0.25),
    "migration_ms_tail": ("ms", "lower", 0.25),
    "sim_victim_p99_ms": ("ms", "lower", 0.10),
    "ops_failed_frac": ("frac", "lower", 0.0),
}

#: A run stops starting repeats after this long, whatever ``--seconds``.
MAX_RUN_S = 120.0

#: Host-time metrics are scaled to a host on which :func:`reference_ms`
#: takes this many CPU ms (see README, "Host speed").
REFERENCE_MS = 50.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def metric_table(spec: dict) -> dict[str, tuple[str, str, float]]:
    """Every end-to-end metric: name -> (unit, better, bound)."""
    table = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update(EXTRA_METRICS)
    return table


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def _git_revision() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's source files (names and bytes), so a
    record identifies the code even outside a git checkout."""
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def reference_ms() -> float:
    """CPU ms of a fixed NumPy + interpreter loop: the host speed probe.

    A shared host's speed drifts by 15-40 % over minutes; timing this
    loop between repeats and scaling host times by it removes most of
    that drift from run-to-run comparisons.
    """
    t0 = time.process_time()
    a = np.random.default_rng(0).integers(0, 1 << 20, 200_000)
    for _ in range(3):
        np.searchsorted(np.sort(a), a[:50_000])
    d: dict[int, int] = {}
    for i in range(60_000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return (time.process_time() - t0) * 1e3


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def per_op_medians(reps: list[dict], clock: str, kind: str) -> list[float]:
    """Each operation's median host time across the repeats.

    Every repeat replays the same history, so the i-th CP of one repeat
    is the same work as the i-th CP of any other; the median over
    repeats keeps the program's CP-to-CP variation and drops host
    hiccups that hit one repeat.
    """
    return [statistics.median(col) for col in
            zip(*(r[clock]["samples"][kind] for r in reps))]


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` at the highest percentile that has at
    least 10 samples beyond it (the median, below 20 samples)."""
    n = len(values)
    pct = 100.0 * (1 - 10 / n) if n >= 20 else 50.0
    return float(np.percentile(values, pct)), pct


# ----------------------------------------------------------------------
# Repeats
# ----------------------------------------------------------------------
def one_repeat(wl, tracer=None) -> dict:
    """Set up, measure, read out.  With ``tracer``, both set-up and the
    measured phase run traced.  The readout is never timed or traced."""
    from workloads import OpFailed, Recorder

    rec = Recorder()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        c0, w0 = time.process_time(), time.perf_counter()
        state = wl.setup()
        c1, w1 = time.process_time(), time.perf_counter()
        error = ""
        try:
            wl.measure(state, rec)
        except OpFailed:
            error = rec.error
        c2, w2 = time.process_time(), time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = {
        # Process CPU time drives the metrics: on a shared host it
        # excludes time the benchmark spent descheduled.
        "cpu": {"setup_s": c1 - c0, "measure_s": c2 - c1, "total_s": c2 - c0,
                "samples": rec.ms},
        "wall": {"setup_s": w1 - w0, "measure_s": w2 - w1, "total_s": w2 - w0,
                 "samples": rec.wall_ms},
        "attempted": rec.attempted,
        "failed": rec.failed,
        "error": error,
        "state": state,
    }
    if not error:
        rep["cps"] = wl.committed_cps(state)
        rep["digest"], rep["sim"], rep["counts"] = wl.readout(state)
    return rep


def _strip(rep: dict) -> dict:
    """A repeat without its live state and raw samples (for the record)."""
    out = {k: v for k, v in rep.items() if k != "state"}
    for clock in ("cpu", "wall"):
        out[clock] = {k: v for k, v in rep[clock].items() if k != "samples"}
    out["cp_ms"] = [round(x, 4) for x in rep["cpu"]["samples"]["cp"]]
    return out


def run_repeats(wl, seconds: float, *,
                traced: bool) -> tuple[list[dict], list[dict], dict | None, object]:
    """Untraced repeats (and, with ``traced``, a traced repeat after
    each) until ``seconds`` of measured time and the workload's minimum
    repeat count are reached.  Returns (untraced, traced, failure,
    tracer of the last traced repeat).  Only the last untraced repeat's
    state is kept (for verification); earlier ones are dropped before
    the next set-up so peak memory is one system's."""
    from tracing import Tracer

    plain: list[dict] = []
    spans: list[dict] = []
    tracer = None
    start = time.perf_counter()
    measured = 0.0
    while True:
        if plain:
            plain[-1]["state"] = None
        probes = [reference_ms() for _ in range(3)]
        rep = one_repeat(wl)
        rep["reference_ms"] = probes
        plain.append(rep)
        measured += rep["cpu"]["measure_s"]
        if rep["error"]:
            return plain, spans, rep, tracer
        if traced:
            tracer = Tracer()
            trep = one_repeat(wl, tracer)
            trep["state"] = None
            spans.append(trep)
            trep["trace"] = tracer.boundary_totals()
            measured += trep["cpu"]["measure_s"]
            if trep["error"]:
                return plain, spans, trep, tracer
        enough = len(plain) >= (1 if traced else wl.min_repeats) and measured >= seconds
        if enough or time.perf_counter() - start > MAX_RUN_S:
            return plain, spans, None, tracer


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(wl, reps: list[dict], clock: str = "cpu",
               scale: float = 1.0) -> tuple[dict[str, float], dict]:
    """End-to-end metrics over untraced repeats, plus notes; host times
    from ``clock`` ("cpu" or "wall"), multiplied by ``scale``."""
    cp = [x * scale for x in per_op_medians(reps, clock, "cp")]
    cp_tail, cp_pct = tail(cp)
    sim = reps[-1]["sim"]
    m = {
        "setup_s": statistics.median(r[clock]["setup_s"] for r in reps) * scale,
        "cps_per_s": statistics.median(r["cps"] / r[clock]["measure_s"] for r in reps) / scale,
        "cp_ms_p50": float(np.percentile(cp, 50.0)),
        "cp_ms_tail": cp_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_frac": sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps),
    }
    m.update({k: v for k, v in sim.items() if k.startswith("sim_")})
    notes = {"cp_samples": len(cp), "cp_tail_pct": cp_pct, "repeats": len(reps)}
    mig = [x * scale for x in per_op_medians(reps, clock, "migration")]
    if mig:
        m["migration_ms_p50"] = float(np.percentile(mig, 50.0))
        m["migration_ms_tail"], notes["migration_tail_pct"] = tail(mig)
        notes["migration_samples"] = len(mig)
    return m, notes


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: median over traced repeats of each boundary's
    calls and self time, the workload's deterministic counts, the
    unattributed remainder and the tracing overhead."""
    from tracing import BOUNDARY_NAMES

    m: dict[str, float] = {}
    for b in BOUNDARY_NAMES:
        m[f"{b}.calls"] = statistics.median(t["trace"][0][b]["calls"] for t in traced)
        m[f"{b}.self_ms"] = statistics.median(t["trace"][0][b]["self_ms"] for t in traced)
    m["core.cache.refill_calls"] = statistics.median(
        sum(n for lab, n in t["trace"][1].items() if lab.startswith("core.cache:")
            and lab.endswith(".refill")) for t in traced)
    m.update(traced[-1]["counts"])
    # Spans are wall-clock; the overhead compares CPU time.
    m["unattributed_ms"] = statistics.median(
        t["wall"]["total_s"] * 1e3 - sum(v["self_ms"] for v in t["trace"][0].values())
        for t in traced)
    m["trace_overhead_frac"] = (
        statistics.median(t["cpu"]["total_s"] for t in traced)
        / statistics.median(p["cpu"]["total_s"] for p in plain) - 1.0)
    epochs_run = m["cluster.run_epoch.calls"]
    useful = m.get("cluster.shard_epochs_useful", 0)
    m["cluster.shard_epochs_run"] = epochs_run
    m["cluster.shard_epochs_useful"] = useful
    m["cluster.replay_useful_frac"] = useful / epochs_run if epochs_run else 0.0
    return m


def listed_metrics(listed: list[dict], values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` for every metric ``BENCHMARK.json``
    lists; a layer the workload does not have reads 0."""
    return {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in listed}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    spec = load_spec()
    host = host_record()
    wl = WORKLOADS[workload](seed)
    plain, traced, failure, tracer = run_repeats(wl, seconds, traced=trace)

    problems: list[str] = []
    if failure is not None:
        problems.append(f"{workload}: operation failed: {failure['error']}")
    else:
        digests = {r["digest"] for r in plain + traced}
        if len(digests) != 1:
            problems.append(f"{workload}: simulated digest differs across repeats "
                            f"(traced and untraced): {sorted(digests)}")
        problems.extend(wl.verify(plain[-1]["state"]))
    plain[-1]["state"] = None
    host["loadavg_1m_end"] = os.getloadavg()[0]
    host["reference_ms"] = statistics.median(x for r in plain for x in r["reference_ms"])

    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host, "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "repeats": [_strip(r) for r in plain],
        "traced_repeats": [_strip(t) for t in traced],
    }
    metrics: dict[str, tuple[float, str]] = {}
    if failure is None:
        if trace:
            values = per_layer(plain, traced)
            record["per_layer"] = values
            metrics = listed_metrics(spec["per_layer"], values)
            for name, value in values.items():
                print(f"  {name:<40} {value:>16.6g}")
        else:
            table = metric_table(spec)
            values, notes = end_to_end(wl, plain, "cpu", REFERENCE_MS / host["reference_ms"])
            record["end_to_end"] = values
            record["end_to_end_cpu"] = end_to_end(wl, plain, "cpu")[0]
            record["end_to_end_wall"] = end_to_end(wl, plain, "wall")[0]
            record["notes"] = notes
            metrics = listed_metrics(spec["end_to_end"], values)
            _print_table(workload, seed, values, table, notes, host)
    os.makedirs(os.path.join(OUT, workload), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    base = os.path.join(OUT, workload, f"s{seed}-t{int(trace)}-{stamp}")
    with open(base + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=float)
    if trace and tracer is not None:
        tracer.dump(base + ".spans.jsonl")
    for p in problems:
        print(f"CORRECTNESS FAILURE [{workload}]: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def _print_table(workload, seed, values, table, notes, host) -> None:
    print(f"{workload} seed={seed} repeats={notes['repeats']} "
          f"nproc={host['nproc']} load1={host['loadavg_1m_start']:.2f}->"
          f"{host['loadavg_1m_end']:.2f} python={host['python']} numpy={host['numpy']} "
          f"rev={host['git_revision'] or host['source_sha256'][:12]}")
    for name, (unit, better, _) in table.items():
        if name in values:
            note = ""
            if name == "cp_ms_tail":
                note = f"  (p{notes['cp_tail_pct']:g} of {notes['cp_samples']})"
            if name == "migration_ms_tail":
                note = f"  (p{notes['migration_tail_pct']:g} of {notes['migration_samples']})"
            print(f"  {name:<28} {values[name]:>16.6g} {unit:<6} {better}{note}")


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------
def _load_records(path: str) -> list[dict]:
    recs = []
    for dirpath, _, filenames in os.walk(path):
        for name in sorted(filenames):
            if name.endswith(".json"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    rec = json.load(f)
                if rec.get("trace") == 0 and "end_to_end" in rec:
                    recs.append(rec)
    return recs


def verdict(base: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> dict:
    """Verdict on one metric: ``improved`` needs >= 9/10 of the
    paired runs won (ties count for neither) and a median gap wider than
    the parent's interquartile range; ``no worse`` needs the change's
    median within ``bound`` of the parent's, and a parent spread within
    the bound; otherwise ``unresolved`` (or ``worse``)."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    b, c = list(base.values()), list(change.values())
    bq = statistics.quantiles(b, n=4) if len(b) >= 2 else [b[0]] * 3
    cq = statistics.quantiles(c, n=4) if len(c) >= 2 else [c[0]] * 3
    bmed, cmed = statistics.median(b), statistics.median(c)
    gain = sign * (cmed - bmed)
    spread = (bq[2] - bq[0]) / abs(bmed) if bmed else 0.0
    if bmed:
        worse_by = -gain / abs(bmed)
    else:
        worse_by = float("inf") if gain < 0 else 0.0
    all_better = min(sign * x for x in c) > max(sign * x for x in b)
    if seeds and wins >= 0.9 * len(seeds) and gain > bq[2] - bq[0]:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by <= bound:
        v = "no worse"
    else:
        v = "worse"
    return {"base": (bmed, bq[0], bq[2]), "change": (cmed, cq[0], cq[2]),
            "pairs": len(seeds), "wins": wins, "verdict": v}


def compare(base_dir: str, change_dir: str) -> int:
    table = metric_table(load_spec())
    base, change = _load_records(base_dir), _load_records(change_dir)
    if not base or not change:
        print("compare: no untraced records found", file=sys.stderr)
        return 2
    print(f"{'workload':<16}{'metric':<28}{'base median [q1,q3]':>44}"
          f"{'change median [q1,q3]':>44}{'won':>8}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in change}):
        for name, (unit, better, bound) in table.items():
            b = {r["seed"]: r["end_to_end"][name] for r in base
                 if r["workload"] == workload and name in r["end_to_end"]}
            c = {r["seed"]: r["end_to_end"][name] for r in change
                 if r["workload"] == workload and name in r["end_to_end"]}
            if not b or not c:
                continue
            v = verdict(b, c, better, bound)

            def fmt(t):
                return f"{t[0]:.5g} [{t[1]:.5g},{t[2]:.5g}] {unit}"

            print(f"{workload:<16}{name:<28}{fmt(v['base']):>44}{fmt(v['change']):>44}"
                  f"{v['wins']:>4}/{v['pairs']:<3}  {v['verdict']}")
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for re-checking claims: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.compare:
        return compare(*args.compare)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
