"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's evaluation figures (``repro bench``) and runs
small demos without pytest.  ``--quick`` shrinks each experiment for
interactive use (the shipped EXPERIMENTS.md numbers come from the
full-size runs).
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.common import constants as c

    print(f"repro {repro.__version__} — reproduction of 'Efficient Search for "
          f"Free Blocks in the WAFL File System' (ICPP 2018)")
    print()
    print("modelling constants:")
    for name in (
        "BLOCK_SIZE",
        "BITS_PER_BITMAP_BLOCK",
        "DEFAULT_RAID_AA_STRIPES",
        "RAID_AGNOSTIC_AA_BLOCKS",
        "TETRIS_STRIPES",
        "HBPS_BIN_WIDTH",
        "HBPS_LIST_CAPACITY",
        "TOPAA_RAID_AWARE_ENTRIES",
        "AZCS_REGION_BLOCKS",
    ):
        print(f"  {name:26s} = {getattr(c, name)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Parallel benchmark sweep: figure tables on stdout, one JSON
    trajectory document on disk."""
    import os

    from repro.bench.experiments import figure_tables
    from repro.bench.runner import (
        ALL_EXPERIMENTS,
        compare_to_baseline,
        perf_regression,
        run_bench,
        write_results,
    )

    workers = args.workers
    if workers <= 0:
        workers = min(8, os.cpu_count() or 1)
    experiments = args.experiments or None
    print(f"bench: {', '.join(experiments or ALL_EXPERIMENTS)} "
          f"({'quick' if args.quick else 'full'}, {workers} worker(s)"
          + (", audited" if args.audit else "")
          + (", traced" if args.trace else "") + ")")

    def progress(key: str, res: dict) -> None:
        wall = res["timing"]["wall_s"]
        cap = res["metrics"].get("capacity_ops") if isinstance(res["metrics"], dict) else None
        extra = f", {cap:,.0f} ops/s peak" if cap else ""
        print(f"  [done] {key:40s} {wall:7.2f}s{extra}")

    doc = run_bench(
        quick=args.quick,
        workers=workers,
        experiments=experiments,
        seed=args.seed,
        audit=args.audit,
        trace=args.trace,
        progress=progress,
    )
    for text in figure_tables(doc):
        print("\n" + text)
    path = write_results(doc, args.out)
    t = doc["timing"]
    print(f"\n{t['units']} unit(s) in {t['total_wall_s']:.2f}s "
          f"({t['units_per_s']:.2f} units/s, {workers} worker(s))")
    if "optimization" in doc:
        opt = doc["optimization"]
        print(f"macro measure phase: {opt['before']['measure_wall_s']:.2f}s -> "
              f"{opt['after']['measure_wall_s']:.2f}s "
              f"({opt['speedup_measure']:.2f}x); aging "
              f"{opt['before']['age_wall_s']:.2f}s -> "
              f"{opt['after']['age_wall_s']:.2f}s ({opt['speedup_age']:.2f}x)")
    print(f"wrote {path}")
    if args.baseline:
        import json

        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        problems = compare_to_baseline(doc, baseline, rtol=args.rtol)
        if problems:
            print(f"\nbaseline regression check FAILED "
                  f"({len(problems)} metric(s) moved, rtol={args.rtol:g}):")
            for p in problems[:40]:
                print(f"  {p}")
            if len(problems) > 40:
                print(f"  ... and {len(problems) - 40} more")
            return 1
        print(f"\nbaseline regression check OK (rtol={args.rtol:g}) "
              f"vs {args.baseline}")
        slow = perf_regression(doc, baseline)
        if slow:
            print("\nperf regression gate FAILED (CP throughput dropped):")
            for p in slow:
                print(f"  {p}")
            return 1
        print("perf regression gate OK (macro cps_per_s within 10%)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile the macro benchmark and report wall-clock hotspots next
    to the modeled per-phase CPU decomposition."""
    import cProfile
    import io
    import os
    import pstats

    from repro.bench.harness import (
        RESULTS_DIR,
        build_aged_ssd_sim,
        measure_random_overwrite,
    )

    n_cps = 15 if args.quick else 40
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    sim = build_aged_ssd_sim(
        blocks_per_disk=65_536 if args.quick else 131_072,
        churn_factor=1.0 if args.quick else 2.0,
    )
    t1 = time.perf_counter()
    result = measure_random_overwrite(sim, "profile", n_cps=n_cps)
    t2 = time.perf_counter()
    prof.disable()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    dump = os.path.join(RESULTS_DIR, "profile.prof")
    prof.dump_stats(dump)

    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    print(buf.getvalue().rstrip())

    print(f"\naging {t1 - t0:.2f}s, measurement {t2 - t1:.2f}s "
          f"({n_cps / (t2 - t1):.1f} CPs/s under profiler)")
    print(f"cpu_us_per_op {result.cpu_us_per_op:.3f}, "
          f"capacity {result.capacity_ops:,.0f} ops/s")

    phases = sim.engine.metrics.query("cpu_phase_us", model=sim.engine.cpu_model)
    total = sum(phases.values()) or 1.0
    print("\nmodeled CPU by pipeline phase (measurement sweep):")
    for name, us in sorted(phases.items(), key=lambda kv: -kv[1]):
        print(f"  {name:20s} {us / 1e6:9.3f} s-CPU  {us / total:7.2%}")
    print(f"\nprofile dump: {dump} (open with pstats or snakeviz)")
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    """Multi-tenant traffic engine: per-tenant QoS and tail latency."""
    from repro.bench.harness import fmt_table
    from repro.traffic import run_traffic

    t0 = time.perf_counter()
    if args.chaos:
        from repro.faults import PHASES, run_chaos_under_load

        print(f"traffic chaos-under-load: scenario={args.scenario}, "
              f"{args.tenants} tenant(s), seed={args.seed}")
        metrics, engine = run_chaos_under_load(
            scenario=args.scenario, n_tenants=args.tenants, seed=args.seed,
        )
        rows = [
            [phase]
            + [metrics.phase_p99_ms[phase][t.name] for t in engine.tenants]
            for phase in PHASES
        ]
        print("\n" + fmt_table(
            ["phase"] + [t.name for t in engine.tenants],
            rows,
            title="per-tenant p99 latency (ms) by fault phase",
        ))
        print(f"\n{metrics.cps_completed} CPs, "
              f"{metrics.failed_allocations} failed allocations, "
              f"{metrics.disk_failures} disk failure(s), "
              f"{metrics.reconstruction_reads} reconstruction reads, "
              f"rebuild {metrics.rebuild_us / 1e3:.1f} ms "
              f"[{time.perf_counter() - t0:.1f}s]")
        return 0 if metrics.failed_allocations == 0 else 1

    print(f"traffic scenario: {args.scenario}, {args.tenants} tenant(s), "
          f"seed={args.seed} ({'quick' if args.quick else 'full'})")
    run = run_traffic(
        args.scenario, n_tenants=args.tenants, seed=args.seed, quick=args.quick,
    )
    result = run.result
    rows = []
    for name in sorted(result.tenants):
        t = result.tenants[name]
        qos = []
        if t.rejected:
            qos.append(f"{t.rejected} shed")
        rows.append([
            t.name, t.volume, t.offered_ops_s, t.achieved_ops_s,
            t.p50_ms, t.p95_ms, t.p99_ms,
            t.mean_queue_depth, ", ".join(qos) or "-",
        ])
    print("\n" + fmt_table(
        ["tenant", "volume", "offered/s", "achieved/s",
         "p50 ms", "p95 ms", "p99 ms", "mean qd", "qos"],
        rows,
        title=f"per-tenant results ({result.cps} CPs, "
              f"{result.horizon_s:.2f}s simulated)",
    ))
    print(f"\ncalibrated capacity {run.calibration.capacity_ops:,.0f} ops/s, "
          f"run-implied capacity {result.capacity_ops:,.0f} ops/s, "
          f"total {result.total_ops} ops "
          f"[{time.perf_counter() - t0:.1f}s]")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace a traffic scenario: Chrome trace_event JSON plus a per-CP
    span tree reconciled exactly against the run's CPStats records."""
    import os

    from repro import obs
    from repro.bench.harness import RESULTS_DIR
    from repro.traffic import run_traffic

    # Accept underscores for convenience (noisy_neighbor == noisy-neighbor).
    scenario = args.scenario.replace("_", "-")
    print(f"trace: scenario={scenario}, {args.tenants or 'default'} tenant(s), "
          f"seed={args.seed} ({'quick' if args.quick else 'full'})")
    t0 = time.perf_counter()
    tracer = obs.install()
    try:
        run = run_traffic(
            scenario, n_tenants=args.tenants, seed=args.seed, quick=args.quick
        )
    finally:
        obs.uninstall()
    records = tracer.records()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = args.out or os.path.join(RESULTS_DIR, f"trace_{scenario}.json")
    with open(out, "w", encoding="utf-8") as f:
        f.write(obs.export.to_chrome(records))
        f.write("\n")
    paths = [out]
    if args.jsonl:
        jsonl_path = os.path.splitext(out)[0] + ".jsonl"
        with open(jsonl_path, "w", encoding="utf-8") as f:
            f.write(obs.export.to_jsonl(records))
        paths.append(jsonl_path)

    if args.tree:
        intact = sorted(obs.report.complete_cps(records))
        show = intact[-args.tree:]
        lines: list[str] = []
        for cp_index in show:
            lines.extend(obs.report.span_tree_lines(records, cp=cp_index))
        print("\n".join(lines))

    problems = obs.report.reconcile(records, run.sim.metrics.cps)
    n_cps = len(obs.report.complete_cps(records))
    dt = time.perf_counter() - t0
    for p in paths:
        print(f"wrote {p}")
    print(f"{len(records)} trace record(s), {tracer.dropped} dropped, "
          f"{n_cps} CP(s) reconciled against CPStats [{dt:.1f}s]")
    if problems:
        print(f"trace reconciliation FAILED ({len(problems)} mismatch(es)):")
        for p in problems[:20]:
            print(f"  {p}")
        return 1
    print("trace reconciliation OK (traced block counts == counted)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Chaos runner: disk failure mid-workload + corrupted TopAA page +
    silent bitmap bit-flips, recovered end-to-end."""
    from repro.faults import default_scenario, run_chaos

    sc = default_scenario(seed=args.seed, quick=args.quick)
    print(f"chaos scenario: seed={sc.seed}, {sc.n_cps} CPs x {sc.ops_per_cp} ops, "
          f"{len(sc.faults)} scheduled faults")
    for f in sc.faults:
        when = "pre-mount" if f.at_cp <= 0 else f"cp {f.at_cp}"
        print(f"  [{when:>9s}] {f.kind:14s} -> {f.target}"
              + (f" x{f.count}" if f.count != 1 else "")
              + (f" (disk {f.arg})" if f.arg is not None else ""))
    t0 = time.perf_counter()
    metrics, sim = run_chaos(sc)
    dt = time.perf_counter() - t0

    print(f"\nmount: {len(metrics.mount_fallbacks)} fallback(s)"
          + (f" {metrics.mount_fallbacks}" if metrics.mount_fallbacks else "")
          + (f", {metrics.transient_retries} transient retries"
             if metrics.transient_retries else ""))
    print(f"scrub: detected {metrics.findings_detected or 'nothing'}, "
          f"repaired {metrics.findings_repaired or 'nothing'}")
    if metrics.escalations:
        print(f"escalations (scoped Iron repair): {', '.join(metrics.escalations)}")
    print(f"degraded RAID: {metrics.disk_failures} disk failure(s), "
          f"{metrics.reconstruction_reads} reconstruction reads, "
          f"{metrics.degraded_stripes} degraded stripes, "
          f"{metrics.disks_replaced} rebuild(s) "
          f"({metrics.blocks_reconstructed} blocks, {metrics.rebuild_us / 1e3:.1f} ms)")
    print(f"degraded allocation: {metrics.degraded_cps} CP(s) on the bitmap walk, "
          f"{metrics.degraded_selects} AA selects, "
          f"{metrics.walk_bits_scanned} bits scanned, "
          f"{metrics.rebuild_blocks_read} metafile blocks read rebuilding caches")
    print(f"\n{metrics.cps_completed}/{sc.n_cps} CPs completed, "
          f"{metrics.failed_allocations} failed allocations, "
          f"final scrub {'CLEAN' if metrics.final_clean else 'DIRTY'} "
          f"[{dt:.1f}s]")
    ok = (metrics.failed_allocations == 0 and metrics.final_clean
          and metrics.cps_completed == sc.n_cps)
    print("recovery " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_crash(args: argparse.Namespace) -> int:
    """Systematic crash-consistency sweep: crash at every CP span edge,
    recover through the real mount path, audit every invariant, and
    verify byte-equality with the last committed CP's metadata image."""
    from repro.crash import (
        explore_aging,
        explore_noisy_neighbor,
        run_crash_under_load,
    )

    cps = 1 if args.quick else args.cps
    t0 = time.perf_counter()
    matrices = []
    if args.workload in ("aging", "both"):
        matrices.append(explore_aging(cps=cps, seed=args.seed))
    if args.workload in ("noisy-neighbor", "both"):
        matrices.append(explore_noisy_neighbor(cps=cps, seed=args.seed))

    failed = False
    for m in matrices:
        torn = m.torn_write_cases
        post = sum(1 for o in m.outcomes if o.post_commit)
        print(f"{m.workload}: {m.crash_points} crash points across "
              f"{m.cps_swept} CP(s), {torn} with torn writes, "
              f"{post} post-commit .. "
              + ("OK" if m.ok else f"{len(m.violations)} VIOLATION(S)"))
        if args.verbose or not m.ok:
            for o in (m.outcomes if args.verbose else m.violations):
                print(f"  {o.row()}")
                for v in o.violations:
                    print(f"      {v}")
        if m.outcomes:
            worst = max(o.recovery_us for o in m.outcomes)
            mean = sum(o.recovery_us for o in m.outcomes) / len(m.outcomes)
            print(f"  recovery cost: mean {mean / 1e3:.2f} ms, "
                  f"worst {worst / 1e3:.2f} ms (modeled metafile reads)")
        print(f"  matrix digest: {m.digest()}")
        failed |= not m.ok

    if not args.no_load:
        rep = run_crash_under_load(
            steps=2 * cps, crash_every=2, seed=args.seed
        )
        print(f"under load ({rep.scenario}): {len(rep.crashes)} mid-CP "
              f"crash(es) in {rep.steps} steps .. "
              + ("OK" if rep.ok else "FAILED"))
        for c in rep.crashes:
            if args.verbose or not c.ok:
                print(f"  {c.row()}")
                for v in c.violations:
                    print(f"      {v}")
        print(f"  report digest: {rep.digest()}")
        failed |= not rep.ok

    dt = time.perf_counter() - t0
    print(f"crash consistency "
          + ("FAILED" if failed else "PASSED") + f" [{dt:.1f}s]")
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """simlint: AST static analysis with the repo's determinism,
    layering, unit, and error-hygiene rules (see repro.analysis.rules).
    With --deep, additionally run the whole-program flow passes
    (repro.analysis.flow): interprocedural determinism taint, unit
    typestate, commit-path effects, and seed threading."""
    from pathlib import Path

    from repro.analysis import format_findings, lint_paths

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    findings = lint_paths(paths)
    print(format_findings(findings))
    if not args.deep:
        return 1 if findings else 0

    from repro.analysis.flow import (
        deep_lint,
        default_baseline_path,
        format_deep_findings,
        load_baseline,
        report_to_json,
        split_findings,
        write_baseline,
    )

    t0 = time.perf_counter()
    report = deep_lint(paths, cache_path=args.cache or None)
    diff = None
    baseline_path = None
    if args.baseline is not None or args.update_baseline:
        baseline_path = args.baseline or str(default_baseline_path())
        previous = load_baseline(baseline_path)
        diff = split_findings(list(report.findings), previous)
        if args.update_baseline:
            write_baseline(baseline_path, list(report.findings), previous)
            print(f"wrote baseline {baseline_path} "
                  f"({len(report.findings)} waiver(s), "
                  f"{len(diff.stale)} pruned)")
            diff = split_findings(list(report.findings),
                                  load_baseline(baseline_path))
    print(format_deep_findings(report, diff))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(report_to_json(report, diff))
        print(f"wrote {args.json}")
    print(f"deep lint: [{time.perf_counter() - t0:.1f}s]"
          + (f" (baseline {baseline_path})" if baseline_path else ""))
    deep_failed = bool(report.findings) if diff is None else not diff.ok
    return 1 if (findings or deep_failed) else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Arm the cross-layer invariant auditor and sweep CPs through the
    interesting regimes: snapshot churn, budgeted delayed frees, and
    the full chaos scenario (degraded RAID, corrupt TopAA, bit flips)."""
    from repro import RandomOverwriteWorkload, WaflSim
    from repro.analysis import arm_global, audit_sim, disarm_global
    from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
    from repro.common.errors import AuditError
    from repro.faults import default_scenario, run_chaos
    from repro.workloads import fill_volumes

    n = 4 if args.quick else 8
    t0 = time.perf_counter()
    arm_global()
    try:
        sim = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="ssd", media="ssd", ndata=4,
                                blocks_per_disk=16384),),
                volumes=(VolumeDecl("lun0", logical_blocks=24576),
                         VolumeDecl("lun1", logical_blocks=12288)),
            ),
            seed=11,
        )
        fill_volumes(sim)
        wl = RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=5)
        sim.run(wl, n)
        sim.create_snapshot("lun0", "audit-snap")
        sim.set_free_budget(4)
        sim.run(wl, n)
        sim.delete_snapshot("lun0", "audit-snap")
        sim.set_free_budget(None)
        sim.run(wl, n)
        healthy = sim.engine.auditor.cps_audited
        print(f"healthy sweep: {healthy} CPs audited "
              f"(snapshot churn + delayed-free budget) .. OK")

        sc = default_scenario(seed=args.seed, quick=args.quick)
        metrics, chaos_sim = run_chaos(sc)
        chaos = chaos_sim.engine.auditor.cps_audited
        print(f"chaos sweep: {chaos} CPs audited under seed {sc.seed} "
              f"({metrics.disk_failures} disk failure(s), "
              f"{metrics.degraded_cps} degraded CP(s)) .. OK")

        final = audit_sim(sim)
        final_chaos = audit_sim(chaos_sim)
        final.raise_if_failed()
        final_chaos.raise_if_failed()
        print(f"final structural audit: "
              f"{final.checks_run + final_chaos.checks_run} checks .. OK")
    except AuditError as exc:
        print(f"\naudit FAILED:\n{exc}")
        return 1
    finally:
        disarm_global()
    print(f"audit PASSED [{time.perf_counter() - t0:.1f}s]")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Fleet-scale cluster: filter/weigher placement, online rebalance,
    and the aggregate-kill chaos drill."""
    from repro.bench.harness import fmt_table

    t0 = time.perf_counter()
    if args.action == "place":
        from repro.cluster import (Cluster, FilterScheduler, RandomPlacer,
                                   make_shard_specs, noisy_fleet_requests,
                                   derive_seed)

        n_shards = args.shards if args.shards else (8 if args.quick else 64)
        per_shard = args.tenants if args.tenants else (3 if args.quick else 16)
        n_volumes = n_shards * per_shard
        print(f"cluster place: {n_shards} shards, {n_volumes} tenant volumes, "
              f"seed={args.seed}")
        specs = make_shard_specs(n_shards, seed=args.seed)
        requests = noisy_fleet_requests(
            n_volumes, seed=derive_seed(args.seed, "fleet"))
        fleet = Cluster(specs, scheduler=FilterScheduler(),
                        workers=args.workers)
        scheduled = fleet.schedule(requests)
        control = Cluster(
            specs,
            scheduler=RandomPlacer(seed=derive_seed(args.seed, "random")),
            workers=args.workers,
        )
        random_result = control.schedule(requests, rounds=1)
        rows = []
        for sid in sorted(scheduled.shard_stats):
            st = scheduled.shard_stats[sid]
            rows.append([sid, st["n_volumes"], f"{st['committed_fraction']:.2f}",
                         st["free_blocks"], f"{st['aa_free_fraction']:.3f}",
                         f"{st['worst_p99_ms']:.2f}"])
        print("\n" + fmt_table(
            ["shard", "vols", "committed", "free blk", "aa free", "worst p99 ms"],
            rows, title="filter/weigher placement (final epoch)"))
        victims = [r.name for r in requests if r.profile == "victim"]
        sched_p99 = [scheduled.tenant_p99_ms[v] for v in victims
                     if v in scheduled.tenant_p99_ms]
        rand_p99 = [random_result.tenant_p99_ms[v] for v in victims
                    if v in random_result.tenant_p99_ms]
        mean_s = sum(sched_p99) / len(sched_p99) if sched_p99 else 0.0
        mean_r = sum(rand_p99) / len(rand_p99) if rand_p99 else 0.0
        print(f"\nvictim mean p99: scheduled {mean_s:.3f} ms vs "
              f"random {mean_r:.3f} ms")
        print(f"fleet digest {scheduled.digest[:16]} "
              f"[{time.perf_counter() - t0:.1f}s]")
        return 0 if mean_s <= mean_r else 1

    if args.action == "rebalance":
        from repro.cluster import run_rebalance

        n_shards = args.shards if args.shards else 4
        per_shard = args.tenants if args.tenants else 3
        print(f"cluster rebalance: {n_shards} shards, "
              f"{n_shards * per_shard} tenants, seed={args.seed}")
        out = run_rebalance(n_shards=n_shards, tenants_per_shard=per_shard,
                            seed=args.seed)
        mig = out["migration"]
        print(f"\nmigrated {mig['volume']}: shard {mig['source_shard']} -> "
              f"{mig['target_shard']}, {mig['blocks_copied']} blocks copied, "
              f"{mig['blocks_freed']} freed, {mig['ops_drained']} ops "
              f"drained/replayed")
        print(f"audit: {mig['audit_checks']} checks clean, "
              f"{mig['iron_findings']} Iron findings")
        rows = [[sid, f"{out['worst_p99_before'][sid]:.2f}",
                 f"{out['worst_p99_after'][sid]:.2f}"]
                for sid in sorted(out["worst_p99_before"])]
        print("\n" + fmt_table(["shard", "p99 before", "p99 after"], rows,
                               title="worst tenant p99 (ms) per shard"))
        print(f"[{time.perf_counter() - t0:.1f}s]")
        return 0 if (mig["blocks_copied"] == mig["blocks_freed"]
                     and mig["iron_findings"] == 0) else 1

    # chaos
    from repro.cluster import run_cluster_chaos

    n_shards = args.shards if args.shards else 6
    per_shard = args.tenants if args.tenants else 2
    print(f"cluster chaos: {n_shards} shards, {n_shards * per_shard} tenants, "
          f"seed={args.seed}")
    report = run_cluster_chaos(n_shards=n_shards, tenants_per_shard=per_shard,
                               seed=args.seed)
    d = report.as_dict()
    print(f"\nkilled shard {d['killed_shard']}; evacuated "
          f"{len(d['evacuated'])} volume(s): {d['evacuated']}")
    if d["stranded"]:
        print(f"STRANDED (no surviving shard fits): {d['stranded']}")
    rows = [[v, f"{d['victim_p99_ms'][v]:.3f}", f"{d['victim_bound_ms'][v]:.3f}"]
            for v in sorted(d["victim_p99_ms"])]
    print("\n" + fmt_table(["victim", "p99 ms", "bound ms"], rows,
                           title="victim tails after the kill"))
    print(f"\naudit: {d['audit_checks']} checks clean, "
          f"{d['iron_findings']} Iron findings; victims bounded: "
          f"{d['victims_bounded']} [{time.perf_counter() - t0:.1f}s]")
    ok = (d["victims_bounded"] and d["iron_findings"] == 0
          and not d["stranded"])
    return 0 if ok else 1


def _cmd_tier(args: argparse.Namespace) -> int:
    """Heterogeneous multi-tier aggregate demo: chooser placement on a
    mixed SSD + HDD + SMR aggregate, then the background migration pass
    correcting a deliberate misplacement (block conservation, auditor,
    and Iron asserted inside the bench)."""
    from repro.bench.harness import fmt_table
    from repro.tiering import run_tier_bench

    t0 = time.perf_counter()
    print(f"tier demo: mixed SSD+HDD+SMR aggregate, seed={args.seed}"
          f"{' (quick)' if args.quick else ''}")
    m = run_tier_bench(quick=args.quick, seed=args.seed)["metrics"]

    print("\nchooser placement: " + ", ".join(
        f"{vol} -> {label}" for vol, label in sorted(m["placements"].items())))
    rows = []
    for label in m["tiers"]:
        usage = m["tier_usage"][label]
        rows.append([label, usage["nblocks"], usage["used"], usage["free"],
                     m["blocks_by_tier"][label], m["freed_by_tier"][label]])
    print("\n" + fmt_table(
        ["tier", "blocks", "used", "free", "cp writes", "cp frees"],
        rows, title="per-tier aggregate state"))
    rows = [[r["volume"], r["target"], r["copied"], r["freed"], r["used"]]
            for r in m["migrations"]]
    print("\n" + fmt_table(
        ["volume", "to tier", "copied", "freed", "on target"],
        rows, title="tier migrations (misplace, then background correction)"))
    print(f"\naudit clean: {m['audit_ok']}; Iron clean: {m['iron_clean']}; "
          f"digest {m['digest'][:16]} [{time.perf_counter() - t0:.1f}s]")
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    # Defer to the shipped example (kept as the single source of truth).
    import runpy
    from pathlib import Path

    candidate = Path(__file__).resolve().parents[2].parent / "examples" / "quickstart.py"
    if candidate.exists():
        runpy.run_path(str(candidate), run_name="__main__")
        return 0
    # Installed without the examples directory: run a minimal inline demo.
    from repro import RandomOverwriteWorkload, WaflSim
    from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
    from repro.workloads import fill_volumes

    sim = WaflSim.build(
        AggregateSpec(
            tiers=(TierSpec(label="ssd", media="ssd", ndata=4,
                            blocks_per_disk=65536),),
            volumes=(VolumeDecl("demo", logical_blocks=60_000),),
        ),
        seed=7,
    )
    fill_volumes(sim)
    sim.run(RandomOverwriteWorkload(sim, seed=1), 10)
    for key, val in sim.metrics.summary().items():
        print(f"  {key:24s} = {val:.3f}")
    sim.verify_consistency()
    print("consistency verified")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the WAFL free-block-search paper's evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("info", _cmd_info, "print version and modelling constants"),
        ("faults", _cmd_faults, "chaos scenario: inject faults, recover, report"),
        ("quickstart", _cmd_quickstart, "run the quickstart demo"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--quick", action="store_true",
                       help="smaller configurations for interactive use")
        if name == "faults":
            p.add_argument("--seed", type=int, default=1234,
                           help="scenario seed (same seed => identical recovery)")
        p.set_defaults(fn=fn)
    p = sub.add_parser(
        "bench",
        help="parallel benchmark sweep: the paper's Figures 6-10 (and the "
             "macro/traffic/cluster/tier units) -> tables + one trajectory JSON",
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller configurations for interactive use")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (1 = serial reference; 0 = auto)")
    p.add_argument("--experiments", nargs="*", metavar="EXP",
                   help="subset to run (fig6 fig7 fig8 fig9 fig10 macro "
                        "traffic cluster tier)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: each figure's canonical seed)")
    p.add_argument("--audit", action="store_true",
                   help="arm the CP-time invariant auditor inside workers")
    p.add_argument("--trace", action="store_true",
                   help="run units with the structured tracer installed "
                        "(trace-smoke: metrics must not move)")
    p.add_argument("--baseline", metavar="PATH",
                   help="trajectory JSON to diff deterministic metrics against")
    p.add_argument("--rtol", type=float, default=1e-9,
                   help="relative tolerance for --baseline (default bit-exact)")
    p.add_argument("--out", metavar="PATH",
                   help="trajectory JSON path (default benchmarks/results/bench.json)")
    p.set_defaults(fn=_cmd_bench)
    p = sub.add_parser(
        "traffic",
        help="multi-tenant traffic engine: QoS, noisy neighbors, tail latency",
    )
    p.add_argument("--scenario", default="noisy-neighbor",
                   choices=["uniform", "noisy-neighbor", "throttled"],
                   help="tenant population to run (default noisy-neighbor)")
    p.add_argument("--tenants", type=int, default=4,
                   help="number of tenants (one FlexVol each)")
    p.add_argument("--seed", type=int, default=7,
                   help="traffic seed (same seed => byte-identical run)")
    p.add_argument("--quick", action="store_true",
                   help="smaller configuration for interactive use")
    p.add_argument("--chaos", action="store_true",
                   help="fail and rebuild a disk mid-run; report per-phase p99")
    p.set_defaults(fn=_cmd_traffic)
    p = sub.add_parser(
        "trace",
        help="trace a traffic scenario -> Chrome trace JSON + span tree "
             "reconciled against CPStats",
    )
    p.add_argument("--scenario", default="noisy-neighbor",
                   help="scenario to trace (uniform, noisy-neighbor, throttled; "
                        "underscores accepted)")
    p.add_argument("--tenants", type=int, default=None,
                   help="number of tenants (default from SimConfig)")
    p.add_argument("--seed", type=int, default=7,
                   help="traffic seed (same seed => byte-identical trace)")
    p.add_argument("--quick", action="store_true",
                   help="smaller configuration for interactive use")
    p.add_argument("--out", metavar="PATH",
                   help="Chrome trace path (default benchmarks/results/"
                        "trace_<scenario>.json)")
    p.add_argument("--jsonl", action="store_true",
                   help="also write the raw records as JSON-lines")
    p.add_argument("--tree", type=int, default=2, metavar="N",
                   help="print the span tree of the last N CPs (0 = none)")
    p.set_defaults(fn=_cmd_trace)
    p = sub.add_parser("profile", help="cProfile the macro benchmark + modeled "
                                       "per-phase CPU breakdown")
    p.add_argument("--quick", action="store_true",
                   help="smaller configuration for interactive use")
    p.add_argument("--top", type=int, default=25, help="rows of pstats output")
    p.add_argument("--sort", default="cumulative",
                   choices=["cumulative", "tottime", "calls"],
                   help="pstats sort key")
    p.set_defaults(fn=_cmd_profile)
    p = sub.add_parser(
        "crash",
        help="systematic mid-CP crash injection: sweep every span edge, "
             "recover, audit, verify byte-equality with the committed CP",
    )
    p.add_argument("--quick", action="store_true",
                   help="one CP per workload instead of --cps")
    p.add_argument("--cps", type=int, default=3,
                   help="consecutive CPs to sweep per workload (default 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (same seed => identical matrix digest)")
    p.add_argument("--workload", default="both",
                   choices=["aging", "noisy-neighbor", "both"],
                   help="which sweeps to run (default both)")
    p.add_argument("--no-load", action="store_true",
                   help="skip the crash-under-live-traffic integration")
    p.add_argument("--verbose", action="store_true",
                   help="print every crash point, not just violations")
    p.set_defaults(fn=_cmd_crash)
    p = sub.add_parser("lint", help="simlint: AST rules (determinism, layering, units); "
                                    "--deep adds whole-program flow passes")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the installed repro package)")
    p.add_argument("--deep", action="store_true",
                   help="run the interprocedural flow passes (F801-F804) "
                        "over the whole tree")
    p.add_argument("--baseline", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="ratchet against a findings baseline (default: the "
                        "checked-in src/repro/analysis/flow/baseline.json)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline: keep justifications, prune "
                        "stale waivers, add new findings as unreviewed")
    p.add_argument("--json", metavar="PATH",
                   help="write deep findings as deterministic JSON")
    p.add_argument("--cache", metavar="PATH",
                   default=".flowcache.json",
                   help="call-graph extraction cache (content-hashed; "
                        "default .flowcache.json, '' disables)")
    p.set_defaults(fn=_cmd_lint)
    p = sub.add_parser(
        "cluster",
        help="fleet-scale cluster: filter/weigher placement, online "
             "rebalance, aggregate-kill chaos",
    )
    p.add_argument("action", choices=["place", "rebalance", "chaos"],
                   help="place: schedule a noisy-neighbor fleet vs random; "
                        "rebalance: migrate a hot tenant under live traffic; "
                        "chaos: kill an aggregate and evacuate its tenants")
    p.add_argument("--shards", type=int, default=None,
                   help="aggregates in the fleet (default per action)")
    p.add_argument("--tenants", type=int, default=None,
                   help="tenant volumes per shard (default per action)")
    p.add_argument("--seed", type=int, default=77,
                   help="fleet seed (same seed => byte-identical digests)")
    p.add_argument("--workers", type=int, default=None,
                   help="shard pool size for place (default: in-process)")
    p.add_argument("--quick", action="store_true",
                   help="smaller fleet for interactive use")
    p.set_defaults(fn=_cmd_cluster)
    p = sub.add_parser(
        "tier",
        help="heterogeneous multi-tier aggregate: chooser placement plus "
             "background tier migration with block conservation",
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller aggregate for interactive use")
    p.add_argument("--seed", type=int, default=55,
                   help="demo seed (same seed => byte-identical digest)")
    p.set_defaults(fn=_cmd_tier)
    p = sub.add_parser("audit", help="CP-time invariant audit incl. chaos scenario")
    p.add_argument("--quick", action="store_true",
                   help="smaller configurations for interactive use")
    p.add_argument("--seed", type=int, default=1234,
                   help="chaos scenario seed")
    p.set_defaults(fn=_cmd_audit)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
