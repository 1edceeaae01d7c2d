"""Command-line interface.

``python -m repro.cli <command>`` (or the ``manet-backbone`` entry point):

* ``generate``   — sample a connected network and save it as JSON;
* ``cluster``    — cluster a network and print the structure;
* ``backbone``   — build the static backbone / MO_CDS and print/verify it;
* ``broadcast``  — run a broadcast protocol from a source and print stats;
* ``experiment`` — regenerate a paper figure's series tables;
* ``perf``       — per-stage wall-clock attribution for a figure sweep;
* ``trace``      — run the distributed protocols and print the message trace;
* ``ratio``      — the empirical MCDS approximation-ratio study;
* ``svg``        — export the network/backbone as an SVG figure;
* ``robustness`` — delivery ratios under a lossy data plane;
* ``faults``     — delivery under fault schedules (crashes, cuts, windows);
* ``channel``    — delivery under SINR interference and MAC contention;
* ``mobility``   — backbone churn under node movement;
* ``serve``      — the crash-safe experiment daemon on a unix socket
  (bounded-queue backpressure, per-request journals, restart recovery;
  see docs/serving.md);
* ``route``      — a unicast route over the backbone.

All commands accept ``--seed`` for reproducibility.

The long-running sweep commands (``experiment``, ``faults``, ``channel``)
additionally
accept the resilience flags (see docs/resilience.md): ``--journal FILE``
writes every folded trial to a crash-safe run journal, ``--resume``
replays an interrupted journal so the run continues bit-identically,
``--retries N`` and ``--chunk-timeout SECONDS`` run the chosen backend
under supervision (failed or hung wave chunks are retried with backoff,
broken pools are rebuilt, and execution degrades process → serial rather
than aborting).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.exec.backends import BACKENDS
from repro.rng import DEFAULT_SEED


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", "-n", type=int, default=40,
                        help="number of nodes (default 40)")
    parser.add_argument("--degree", "-d", type=float, default=6.0,
                        help="target average degree (default 6)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random seed")
    parser.add_argument("--load", metavar="FILE",
                        help="load a saved network instead of generating one")


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--journal", metavar="FILE",
                        help="write folded trials to this crash-safe run "
                             "journal (JSONL)")
    parser.add_argument("--resume", action="store_true",
                        help="replay an existing journal and continue the "
                             "run bit-identically")
    parser.add_argument("--retries", type=int, default=None,
                        help="supervise execution: retry failed wave chunks "
                             "up to N times (with pool rebuild and backoff)")
    parser.add_argument("--chunk-timeout", type=float, default=None,
                        help="supervise execution: per-chunk deadline in "
                             "seconds before a chunk counts as hung")


def _resilient_backend(args: argparse.Namespace):
    """The (possibly supervised) backend selected by the CLI flags.

    Returns ``args.backend`` untouched when no supervision flag is given,
    otherwise a ``SupervisedBackend`` wrapping it.
    """
    if args.retries is None and args.chunk_timeout is None:
        return args.backend, None
    from repro.exec.supervise import SupervisedBackend

    supervised = SupervisedBackend(
        args.backend, workers=max(1, args.parallel),
        retries=args.retries if args.retries is not None else 3,
        chunk_timeout=args.chunk_timeout,
    )
    return supervised, supervised


def _open_cli_journal(args: argparse.Namespace, run_key: dict):
    """Open the ``--journal`` file (or return ``None`` without one)."""
    from repro.errors import ConfigurationError
    from repro.exec.journal import open_journal

    if args.resume and not args.journal:
        raise ConfigurationError("--resume requires --journal FILE")
    return open_journal(args.journal, run_key, resume=args.resume)


def _report_supervision(supervised) -> None:
    """One stderr line per event kind, only when something happened."""
    if supervised is None or not supervised.events:
        return
    counts = supervised.event_summary()
    summary = ", ".join(f"{kind}: {counts[kind]}" for kind in sorted(counts))
    print(f"supervision: {summary} (final backend: "
          f"{supervised.inner.name})", file=sys.stderr)


def _obtain_network(args: argparse.Namespace):
    from repro.graph.generators import random_geometric_network
    from repro.io.network_json import load_network

    if args.load:
        return load_network(args.load)
    return random_geometric_network(args.nodes, args.degree, rng=args.seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.io.network_json import save_network

    net = _obtain_network(args)
    save_network(net, args.out)
    print(f"wrote n={net.num_nodes} r={net.radius:.2f} network to {args.out}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.lowest_id import lowest_id_clustering
    from repro.viz.ascii_art import render_backbone

    net = _obtain_network(args)
    structure = lowest_id_clustering(net.graph)
    heads = structure.sorted_heads()
    print(f"{net.num_nodes} nodes, {len(heads)} clusters")
    for h in heads:
        print(f"  cluster {h}: members {sorted(structure.members(h))}")
    if args.render:
        print(render_backbone(net, structure))
    return 0


def _cmd_backbone(args: argparse.Namespace) -> int:
    from repro.backbone.mo_cds import build_mo_cds
    from repro.backbone.static_backbone import build_static_backbone
    from repro.backbone.verify import verify_backbone
    from repro.cluster.lowest_id import lowest_id_clustering
    from repro.types import CoveragePolicy
    from repro.viz.ascii_art import render_backbone

    net = _obtain_network(args)
    structure = lowest_id_clustering(net.graph)
    policy = (CoveragePolicy.THREE_HOP if args.policy == "3"
              else CoveragePolicy.TWO_FIVE_HOP)
    if args.algorithm == "mo-cds":
        backbone = build_mo_cds(structure)
    else:
        backbone = build_static_backbone(structure, policy)
    verify_backbone(backbone)
    print(f"{backbone.algorithm}: |CDS| = {backbone.size} "
          f"({len(structure.clusterheads)} heads + "
          f"{len(backbone.gateways)} gateways) of {net.num_nodes} nodes "
          f"[verified CDS]")
    if args.render:
        print(render_backbone(net, structure, backbone.gateways))
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from repro.backbone.mo_cds import build_mo_cds
    from repro.backbone.static_backbone import build_static_backbone
    from repro.broadcast.delivery import check_full_delivery
    from repro.broadcast.flooding import blind_flooding
    from repro.broadcast.sd_cds import broadcast_sd
    from repro.broadcast.si_cds import broadcast_si
    from repro.cluster.lowest_id import lowest_id_clustering
    from repro.types import CoveragePolicy, PruningLevel

    net = _obtain_network(args)
    structure = lowest_id_clustering(net.graph)
    source = args.source if args.source is not None else min(net.graph.nodes())
    policy = (CoveragePolicy.THREE_HOP if args.policy == "3"
              else CoveragePolicy.TWO_FIVE_HOP)
    if args.protocol == "flooding":
        result = blind_flooding(net.graph, source)
    elif args.protocol == "static":
        result = broadcast_si(
            net.graph, build_static_backbone(structure, policy), source
        )
    elif args.protocol == "mo-cds":
        result = broadcast_si(net.graph, build_mo_cds(structure), source)
    else:  # dynamic
        result = broadcast_sd(
            structure, source, policy=policy,
            pruning=PruningLevel(args.pruning),
        ).result
    check_full_delivery(net.graph, result)
    print(f"{result.algorithm} from {source}: "
          f"{result.num_forward_nodes}/{net.num_nodes} forward nodes, "
          f"latency {result.latency}, {result.transmissions} transmissions "
          f"[full delivery]")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.io.results import tables_to_csv, tables_to_json
    from repro.workload.config import PaperEnvironment
    from repro.workload.experiments import (
        run_fig6, run_fig7, run_fig8, run_flooding_comparison,
    )

    runners = {
        "fig6": run_fig6,
        "fig7": run_fig7,
        "fig8": run_fig8,
        "flooding": run_flooding_comparison,
    }
    env = PaperEnvironment.quick() if args.quick else PaperEnvironment.paper()
    env = env.scaled(seed=args.seed)
    backend, supervised = _resilient_backend(args)
    journal = _open_cli_journal(args, {
        "command": "experiment", "figure": args.figure,
        "quick": bool(args.quick), "seed": args.seed,
    })
    try:
        tables = runners[args.figure](
            env, backend=backend, parallel=args.parallel, journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
        _report_supervision(supervised)
    for _d, table in sorted(tables.items()):
        print(table.render(ci=args.ci))
        print()
    if args.csv:
        n = tables_to_csv(tables.values(), args.csv)
        print(f"wrote {n} rows to {args.csv}")
    if args.json:
        n = tables_to_json(tables.values(), args.json)
        print(f"wrote {n} records to {args.json}")
    return 0


def _perf_broadcast_breakdown(counters) -> dict:
    """Per-protocol broadcast seconds out of the stage counters.

    The delivery kernels time themselves under ``broadcast.flooding`` /
    ``broadcast.si`` / ``broadcast.sd``; sub-cutover points run the event
    engine's single ``broadcast`` stage.  Both appear here so the split
    between kernel and engine time is visible at a glance.
    """
    labels = {"broadcast.flooding": "flooding", "broadcast.si": "si-cds",
              "broadcast.sd": "sd-cds", "broadcast": "engine"}
    breakdown = {
        label: counters[stage]["seconds"]
        for stage, label in labels.items() if stage in counters
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


def _perf_maintenance_breakdown(counters) -> dict:
    """Per-kernel-stage maintenance seconds out of the stage counters.

    The kernel session times itself under ``maintenance.step`` /
    ``maintenance.delta`` / ``maintenance.repair`` (with gateway
    ``selection`` nested exclusively inside repair); the bare
    ``maintenance`` stage holds the residual glue between them.
    """
    labels = {"maintenance.step": "step", "maintenance.delta": "delta",
              "maintenance.repair": "repair", "selection": "selection",
              "maintenance": "residual"}
    breakdown = {
        label: counters[stage]["seconds"]
        for stage, label in labels.items() if stage in counters
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


def _cmd_perf_mobility(args: argparse.Namespace) -> int:
    """The ``perf --figure mobility`` runner: kernel maintenance ticks."""
    import json as _json

    from repro import perf
    from repro.workload.mobility_scaling import run_mobility_scaling

    n, ticks = (10_000, 10) if args.paper else (2_000, 5)
    was_enabled = perf.enabled()
    was_mem = perf.memory_enabled()
    perf.enable()
    if args.mem:
        perf.enable_memory()
    perf.reset()
    try:
        (point,) = run_mobility_scaling(ns=(n,), ticks=ticks, rng=args.seed)
    finally:
        counters = perf.snapshot()
        perf.enable(was_enabled)
        perf.enable_memory(was_mem)
    breakdown = _perf_maintenance_breakdown(counters)
    if args.json:
        payload = {"figure": "mobility", "n": n, "ticks": ticks,
                   "stages": counters,
                   "steps_per_sec": round(point.steps_per_second, 2),
                   "link_changes_per_tick": point.link_changes_per_tick,
                   "maintenance_breakdown": breakdown}
        if args.mem:
            payload["peak_rss_bytes"] = perf.peak_rss_bytes()
        print(_json.dumps(payload, indent=2))
    else:
        print(f"mobility maintenance at n={n}, {ticks} ticks "
              f"(seed {args.seed})")
        print(perf.render_report(counters))
        if breakdown["total"] > 0.0:
            print("maintenance breakdown:")
            for label, seconds in breakdown.items():
                if label == "total":
                    continue
                share = seconds / breakdown["total"]
                print(f"  {label:<9} {seconds:>8.3f}s {share:>5.0%}")
        print(f"throughput: {point.steps_per_second:.1f} ticks/s "
              f"({point.link_changes_per_tick:.0f} link changes/tick)")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro import perf
    from repro.exec.scenarios import get_scenario_cache
    from repro.workload.config import PaperEnvironment
    from repro.workload.experiments import (
        run_fig6, run_fig7, run_fig8, run_flooding_comparison,
    )

    if args.figure == "mobility":
        return _cmd_perf_mobility(args)

    runners = {
        "fig6": run_fig6,
        "fig7": run_fig7,
        "fig8": run_fig8,
        "flooding": run_flooding_comparison,
    }
    env = PaperEnvironment.paper() if args.paper else PaperEnvironment.quick()
    env = env.scaled(seed=args.seed)
    cache = get_scenario_cache()
    cache.clear()  # attribute placement/construction, not cache hits
    was_enabled = perf.enabled()
    was_mem = perf.memory_enabled()
    perf.enable()
    if args.mem:
        perf.enable_memory()
    perf.reset()
    t0 = _time.perf_counter()
    try:
        tables = runners[args.figure](env)
    finally:
        wall = _time.perf_counter() - t0
        counters = perf.snapshot()
        perf.enable(was_enabled)
        perf.enable_memory(was_mem)
    # Every metric of a point folds the same trial count, so one series
    # per table counts the whole sweep.
    trials = sum(
        point.estimate.samples
        for table in tables.values()
        for point in table.series[0].points
    )
    trials_per_sec = trials / wall if wall > 0 else 0.0
    breakdown = _perf_broadcast_breakdown(counters)
    if args.json:
        payload = {"figure": args.figure, "stages": counters,
                   "trials": trials,
                   "wall_seconds": round(wall, 3),
                   "trials_per_sec": round(trials_per_sec, 2),
                   "broadcast_breakdown": breakdown,
                   "scenario_cache": cache.stats()}
        if args.mem:
            payload["peak_rss_bytes"] = perf.peak_rss_bytes()
        print(_json.dumps(payload, indent=2))
    else:
        print(f"{args.figure} (seed {args.seed})")
        print(perf.render_report(counters))
        if breakdown["total"] > 0.0:
            print("broadcast breakdown:")
            for label, seconds in breakdown.items():
                if label == "total":
                    continue
                share = seconds / breakdown["total"]
                print(f"  {label:<9} {seconds:>8.3f}s {share:>5.0%}")
        print(f"throughput: {trials} trials in {wall:.2f}s "
              f"({trials_per_sec:.1f} trials/s)")
        stats = cache.stats()
        print(f"scenario cache: {stats['hits']} hits / "
              f"{stats['misses']} misses ({stats['entries']} entries)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.graph.generators import paper_figure3_graph
    from repro.protocols.runner import (
        run_distributed_build, run_distributed_sd_broadcast,
    )
    from repro.types import CoveragePolicy

    if args.figure3:
        net, graph = None, paper_figure3_graph()
    else:
        net = _obtain_network(args)
        graph = net.graph
    policy = (CoveragePolicy.THREE_HOP if args.policy == "3"
              else CoveragePolicy.TWO_FIVE_HOP)
    build = run_distributed_build(graph, policy)
    if args.channel != "none":
        from repro.channel import make_channel, make_mac

        if args.channel == "sinr" and net is None:
            raise ConfigurationError(
                "--channel sinr needs node positions (not available "
                "with --figure3)"
            )
        # Construction ran under the paper's perfect-MAC assumption; only
        # the data-plane broadcast below contends for the channel.
        build.network.medium.set_channel(make_channel(
            args.channel, net, mac=make_mac(args.mac, rng=args.seed),
        ))
    source = args.source if args.source is not None else min(graph.nodes())
    result, stats = run_distributed_sd_broadcast(build, source)
    print(build.network.trace.render(limit=args.limit))
    print()
    for phase in build.phases:
        print(f"phase {phase.name:<10} {phase.messages:>5} msgs  "
              f"volume {phase.volume:>6}  duration {phase.duration:g}")
    print(f"phase {'sd-bcast':<10} {stats.messages:>5} msgs  "
          f"volume {stats.volume:>6}  duration {stats.duration:g}")
    print(f"\nSD broadcast from {source}: forward nodes "
          f"{sorted(result.forward_nodes)}")
    if result.channel is not None:
        counters = ", ".join(f"{k}: {v}" for k, v in result.channel.items())
        print(f"channel [{args.channel}/{args.mac}]: {counters}")
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    from repro.mcds.ratio import approximation_ratio_study

    samples = approximation_ratio_study(
        samples=args.samples, n=args.nodes, average_degree=args.degree,
        rng=args.seed,
    )
    worst_static = max(s.static_ratio for s in samples)
    worst_dynamic = max(s.dynamic_ratio for s in samples)
    worst_mo = max(s.mo_ratio for s in samples)
    print(f"{len(samples)} samples, n={args.nodes}, d={args.degree}")
    print(f"  static/MCDS  : worst {worst_static:.2f}, "
          f"mean {sum(s.static_ratio for s in samples) / len(samples):.2f}")
    print(f"  dynamic/MCDS : worst {worst_dynamic:.2f}, "
          f"mean {sum(s.dynamic_ratio for s in samples) / len(samples):.2f}")
    print(f"  mo-cds/MCDS  : worst {worst_mo:.2f}, "
          f"mean {sum(s.mo_ratio for s in samples) / len(samples):.2f}")
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from repro.backbone.static_backbone import build_static_backbone
    from repro.cluster.lowest_id import lowest_id_clustering
    from repro.types import CoveragePolicy
    from repro.viz.svg import backbone_to_svg, network_to_svg

    net = _obtain_network(args)
    if args.backbone:
        policy = (CoveragePolicy.THREE_HOP if args.policy == "3"
                  else CoveragePolicy.TWO_FIVE_HOP)
        backbone = build_static_backbone(
            lowest_id_clustering(net.graph), policy
        )
        svg = backbone_to_svg(net, backbone, labels=not args.no_labels)
    else:
        svg = network_to_svg(net, labels=not args.no_labels)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out} ({net.num_nodes} nodes)")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.workload.robustness import run_robustness_sweep

    points = run_robustness_sweep(
        losses=tuple(args.losses), n=args.nodes,
        average_degree=args.degree, trials=args.trials, rng=args.seed,
    )
    print(f"{'loss':>6} | {'flooding':>9} {'static':>8} {'dynamic':>8}")
    for p in points:
        print(f"{p.loss_probability:>6g} | {p.delivery['flooding']:>9.3f} "
              f"{p.delivery['static']:>8.3f} {p.delivery['dynamic']:>8.3f}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ConfigurationError
    from repro.faults.schedule import FaultSchedule
    from repro.workload.faultsweep import (
        PROTOCOLS, run_fault_scenario, run_fault_sweep,
    )

    header = " ".join(f"{p:>12}" for p in PROTOCOLS)
    if args.schedule:
        if args.journal or args.resume:
            raise ConfigurationError(
                "--journal/--resume apply to the sweep path, not --schedule"
            )
        try:
            spec = _json.loads(open(args.schedule).read())
        except _json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{args.schedule} is not valid JSON: {exc}"
            ) from None
        schedule = FaultSchedule.from_spec(spec)
        net = _obtain_network(args)
        source = (args.source if args.source is not None
                  else min(net.graph.nodes()))
        metrics = run_fault_scenario(
            net.graph, source, schedule,
            loss=args.loss, rng=args.seed,
        )
        print(f"schedule {args.schedule}: {len(schedule)} events, "
              f"horizon {schedule.horizon:g}, loss {args.loss:g}")
        print(f"{'':>10} | {header}")
        for axis in ("delivery", "overhead", "latency"):
            row = " ".join(f"{metrics[f'{axis}/{p}']:>12.3f}"
                           for p in PROTOCOLS)
            print(f"{axis:>10} | {row}")
        return 0

    backend, supervised = _resilient_backend(args)
    journal = _open_cli_journal(args, {
        "command": "faults", "losses": list(args.losses), "n": args.nodes,
        "degree": args.degree, "trials": args.trials,
        "crash_fraction": args.crash_fraction, "seed": args.seed,
    })
    try:
        points = run_fault_sweep(
            losses=tuple(args.losses), n=args.nodes,
            average_degree=args.degree, trials=args.trials,
            crash_fraction=args.crash_fraction, rng=args.seed,
            backend=backend, parallel=args.parallel, journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
        _report_supervision(supervised)
    print(f"{'loss':>6} | {header}")
    for p in points:
        row = " ".join(f"{p.delivery[proto]:>12.3f}" for proto in PROTOCOLS)
        print(f"{p.loss_probability:>6g} | {row}")
    if args.json:
        from repro.io.results import fault_sweep_to_json

        n = fault_sweep_to_json(points, args.json)
        print(f"wrote {n} points to {args.json}")
    return 0


def _cmd_channel(args: argparse.Namespace) -> int:
    from repro.workload.contention import (
        CONTENTION_PROTOCOLS, run_contention_sweep,
    )

    backend, supervised = _resilient_backend(args)
    journal = _open_cli_journal(args, {
        "command": "channel", "losses": list(args.losses), "n": args.nodes,
        "degree": args.degree, "trials": args.trials, "mac": args.mac,
        "alpha": args.alpha, "threshold": args.threshold,
        "noise_margin": args.noise_margin, "frame": args.frame,
        "crash_fraction": args.crash_fraction, "seed": args.seed,
    })
    try:
        points = run_contention_sweep(
            losses=tuple(args.losses), n=args.nodes,
            average_degree=args.degree, trials=args.trials,
            mac=args.mac, alpha=args.alpha, threshold=args.threshold,
            noise_margin=args.noise_margin, frame=args.frame,
            crash_fraction=args.crash_fraction, rng=args.seed,
            backend=backend, parallel=args.parallel, journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
        _report_supervision(supervised)
    header = " ".join(f"{p:>12}" for p in CONTENTION_PROTOCOLS)
    print(f"n={args.nodes} d={args.degree:g} mac={args.mac} "
          f"(alpha {args.alpha:g}, threshold {args.threshold:g})")
    for axis in ("delivery", "collisions", "latency"):
        print(f"{axis} by loss:")
        print(f"{'loss':>6} | {header}")
        for p in points:
            row = " ".join(f"{getattr(p, axis)[proto]:>12.3f}"
                           for proto in CONTENTION_PROTOCOLS)
            print(f"{p.loss_probability:>6g} | {row}")
    if args.json:
        from repro.io.results import fault_sweep_to_json

        n = fault_sweep_to_json(points, args.json)
        print(f"wrote {n} points to {args.json}")
    return 0


def _cmd_mobility(args: argparse.Namespace) -> int:
    from repro.geometry.mobility import RandomWalk, RandomWaypoint
    from repro.maintenance.kernels import KernelMobilitySession

    net = _obtain_network(args)
    if args.model == "walk":
        model = RandomWalk(speed=args.speed, area=net.area, rng=args.seed)
    else:
        model = RandomWaypoint(speed_range=(0.5 * args.speed, args.speed),
                               area=net.area, rng=args.seed)
    session = KernelMobilitySession.from_network(net, model)
    print(f"{'t':>4} {'links±':>7} {'head flips':>11} {'gw turnover':>12} "
          f"{'re-signalling':>14} {'connected':>10}")
    for report in session.run(args.ticks):
        print(f"{report.time:>4g} {report.link_changes:>7} "
              f"{report.heads_gained + report.heads_lost:>11} "
              f"{report.gateways_gained + report.gateways_lost:>12} "
              f"{report.resignalling:>14} "
              f"{str(report.connected):>10}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve.server import ServeServer
    from repro.serve.service import ServeService

    service = ServeService(
        args.root,
        backend=args.backend, workers=args.parallel,
        queue_limit=args.queue_limit, watermark=args.watermark,
        retries=args.retries if args.retries is not None else 2,
        chunk_timeout=args.chunk_timeout,
        default_deadline=args.deadline,
    )
    recovered = service.start()
    server = ServeServer(service, args.socket)
    server.start()
    if recovered:
        print(f"recovered {recovered} unfinished request(s)",
              file=sys.stderr)
    print(f"serving on {args.socket}", flush=True)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    # Wait in short slices: a signal the kernel hands to a server thread
    # runs its Python handler only once the main thread next wakes.
    while not stop.wait(0.2):
        pass
    print("draining...", file=sys.stderr, flush=True)
    drained = server.shutdown(grace=args.drain_grace)
    if not drained:
        print("drain grace expired; unfinished requests stay journaled "
              "for the next start", file=sys.stderr)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.backbone.static_backbone import build_static_backbone
    from repro.cluster.lowest_id import lowest_id_clustering
    from repro.graph.traversal import bfs_distances
    from repro.routing.cluster_routing import backbone_route

    net = _obtain_network(args)
    backbone = build_static_backbone(lowest_id_clustering(net.graph))
    nodes = net.graph.nodes()
    source = args.source if args.source is not None else nodes[0]
    target = args.target if args.target is not None else nodes[-1]
    route = backbone_route(backbone, source, target)
    optimal = bfs_distances(net.graph, source).get(target)
    hops = len(route) - 1
    stretch = (hops / optimal) if optimal else 1.0
    print(f"route {source} -> {target}: {' -> '.join(map(str, route))}")
    print(f"{hops} hops (shortest possible {optimal}, stretch "
          f"{stretch:.2f}); relays all on the {backbone.size}-node backbone")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="manet-backbone",
        description="Cluster-based backbone infrastructure for broadcasting "
                    "in MANETs (Lou & Wu, IPPS 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a connected network to JSON")
    _add_network_args(p)
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cluster", help="cluster a network")
    _add_network_args(p)
    p.add_argument("--render", action="store_true", help="ASCII rendering")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("backbone", help="build and verify a backbone")
    _add_network_args(p)
    p.add_argument("--algorithm", choices=["static", "mo-cds"],
                   default="static")
    p.add_argument("--policy", choices=["2.5", "3"], default="2.5",
                   help="coverage policy (static backbone only)")
    p.add_argument("--render", action="store_true", help="ASCII rendering")
    p.set_defaults(func=_cmd_backbone)

    p = sub.add_parser("broadcast", help="run one broadcast")
    _add_network_args(p)
    p.add_argument("--protocol",
                   choices=["flooding", "static", "dynamic", "mo-cds"],
                   default="dynamic")
    p.add_argument("--policy", choices=["2.5", "3"], default="2.5")
    p.add_argument("--pruning", choices=["none", "basic", "full"],
                   default="full")
    p.add_argument("--source", type=int, default=None,
                   help="source node id (default: smallest id)")
    p.set_defaults(func=_cmd_broadcast)

    p = sub.add_parser("experiment", help="regenerate a paper figure")
    p.add_argument("figure", choices=["fig6", "fig7", "fig8", "flooding"])
    p.add_argument("--quick", action="store_true",
                   help="reduced trial counts (fast, noisier)")
    p.add_argument("--ci", action="store_true",
                   help="print confidence half-widths")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--csv", help="also write rows to this CSV file")
    p.add_argument("--json", help="also write records to this JSON file")
    p.add_argument("--backend", choices=BACKENDS,
                   default=None,
                   help="execution backend (results are identical; process "
                        "uses real multi-core workers)")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker count (more than one selects the process "
                        "backend unless --backend says otherwise)")
    _add_resilience_args(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "perf", help="per-stage wall-clock attribution for a figure sweep"
    )
    p.add_argument("--figure",
                   choices=["fig6", "fig7", "fig8", "flooding", "mobility"],
                   default="fig6",
                   help="'mobility' times the kernel maintenance session "
                        "(step/delta/repair breakdown) instead of a "
                        "figure sweep")
    p.add_argument("--paper", action="store_true",
                   help="full paper environment (default: quick); for "
                        "mobility, n=10000 x 10 ticks instead of "
                        "n=2000 x 5")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mem", action="store_true",
                   help="also sample per-stage memory (tracemalloc net "
                        "allocation and peak, plus process peak RSS)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser("trace", help="distributed protocol message trace")
    _add_network_args(p)
    p.add_argument("--figure3", action="store_true",
                   help="use the paper's Figure 3 example network")
    p.add_argument("--policy", choices=["2.5", "3"], default="2.5")
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--limit", type=int, default=60,
                   help="max trace lines to print")
    p.add_argument("--channel", choices=["none", "ideal", "sinr"],
                   default="none",
                   help="PHY model for the data-plane broadcast "
                        "(construction always runs ideal)")
    p.add_argument("--mac", choices=["instant", "csma", "tdma"],
                   default="instant",
                   help="contention MAC under the chosen channel")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("ratio", help="empirical MCDS approximation ratios")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--nodes", "-n", type=int, default=14)
    p.add_argument("--degree", "-d", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_ratio)


    p = sub.add_parser("svg", help="export the network/backbone as SVG")
    _add_network_args(p)
    p.add_argument("--out", required=True, help="output .svg file")
    p.add_argument("--backbone", action="store_true",
                   help="draw the static backbone roles and connectors")
    p.add_argument("--policy", choices=["2.5", "3"], default="2.5")
    p.add_argument("--no-labels", action="store_true")
    p.set_defaults(func=_cmd_svg)

    p = sub.add_parser("robustness", help="delivery ratio under channel loss")
    p.add_argument("--nodes", "-n", type=int, default=50)
    p.add_argument("--degree", "-d", type=float, default=10.0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--losses", type=float, nargs="+",
                   default=[0.0, 0.1, 0.2, 0.3])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser(
        "faults",
        help="delivery under fault schedules (crashes, cuts, loss windows)",
    )
    _add_network_args(p)
    p.add_argument("--schedule", metavar="FILE",
                   help="run one fixed JSON fault schedule instead of a "
                        "random sweep")
    p.add_argument("--source", type=int, default=None,
                   help="source node id for --schedule (default smallest)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="channel loss for --schedule runs")
    p.add_argument("--losses", type=float, nargs="+",
                   default=[0.0, 0.1, 0.2, 0.3],
                   help="loss probabilities of the sweep")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--crash-fraction", type=float, default=0.1)
    p.add_argument("--json", help="also write sweep points to this JSON file")
    p.add_argument("--backend", choices=BACKENDS,
                   default=None,
                   help="execution backend for the sweep (identical results)")
    p.add_argument("--parallel", type=int, default=1)
    _add_resilience_args(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "channel",
        help="delivery under SINR interference and MAC contention",
    )
    p.add_argument("--nodes", "-n", type=int, default=100)
    p.add_argument("--degree", "-d", type=float, default=8.0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--losses", type=float, nargs="+", default=[0.0],
                   help="i.i.d. loss probabilities swept on top of the "
                        "interference (default: pure interference)")
    p.add_argument("--mac", choices=["instant", "csma", "tdma"],
                   default="csma")
    p.add_argument("--alpha", type=float, default=3.0,
                   help="pathloss exponent")
    p.add_argument("--threshold", type=float, default=4.0,
                   help="required SINR (linear)")
    p.add_argument("--noise-margin", type=float, default=2.0,
                   help="clear-channel SNR headroom of a max-range link")
    p.add_argument("--frame", type=int, default=8,
                   help="TDMA frame length (tdma MAC only)")
    p.add_argument("--crash-fraction", type=float, default=0.0,
                   help="per-trial crashed-node fraction (the fault sweep "
                        "under interference)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", help="also write sweep points to this JSON "
                                  "file (fault-sweep schema)")
    p.add_argument("--backend", choices=BACKENDS,
                   default=None,
                   help="execution backend for the sweep (identical results)")
    p.add_argument("--parallel", type=int, default=1)
    _add_resilience_args(p)
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("mobility", help="backbone churn under movement")
    _add_network_args(p)
    p.add_argument("--model", choices=["walk", "waypoint"], default="walk")
    p.add_argument("--speed", type=float, default=2.0)
    p.add_argument("--ticks", type=int, default=10)
    p.set_defaults(func=_cmd_mobility)


    p = sub.add_parser(
        "serve",
        help="run the crash-safe experiment daemon on a unix socket",
    )
    p.add_argument("--socket", required=True,
                   help="unix socket path to listen on")
    p.add_argument("--root", required=True,
                   help="durable state directory (request manifests and "
                        "journals; recovery scans it on start)")
    p.add_argument("--backend", choices=BACKENDS,
                   default="process",
                   help="warm-pool backend shared across requests")
    p.add_argument("--parallel", type=int, default=2,
                   help="worker count of the warm pool")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="hard admission bound (urgent requests shed here)")
    p.add_argument("--watermark", type=int, default=None,
                   help="depth at which normal requests shed with "
                        "'overloaded' (default: queue-limit/2)")
    p.add_argument("--retries", type=int, default=None,
                   help="supervised retry budget per wave chunk (default 2)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   help="supervised per-chunk deadline in seconds")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-request deadline in seconds")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   help="seconds to wait for accepted work on "
                        "SIGTERM/SIGINT before exiting (leftovers are "
                        "recovered on the next start)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("route", help="unicast route over the backbone")
    _add_network_args(p)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_route)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except Exception as exc:  # surface library errors as clean CLI failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
