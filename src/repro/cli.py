"""Command-line interface for the MAGMA reproduction.

Examples
--------
List the available building blocks::

    repro-magma list

Search a mapping for a Mix workload on the S2 accelerator with MAGMA::

    repro-magma search --setting S2 --bandwidth 16 --task mix --optimizer magma

Run one registered scenario (a paper figure/table or a custom sweep) at a
chosen scale::

    repro-magma experiment fig8 --scale small
    repro-magma experiment objective-sweep --scale smoke --seed 1

Run a whole campaign of scenarios as one resumable, deduplicated stream of
search cells, with per-cell results appended to a JSONL store::

    repro-magma campaign fig8 fig12 --out campaign.jsonl
    repro-magma campaign --grid grid.json --out campaign.jsonl
    repro-magma campaign fig8 fig12 --out campaign.jsonl --resume

Fitness evaluation defaults to the vectorized ``batch`` backend; pass
``--eval-backend scalar`` to force the one-encoding-at-a-time reference
oracle (bit-identical, much slower), or ``--eval-backend parallel`` to shard
the batch sweep across compute lanes (``--eval-workers N``: the coordinator
plus N-1 worker processes, default one lane per usable CPU, capped at 8)::

    repro-magma search --setting S2 --task mix --eval-backend scalar
    repro-magma experiment fig9 --eval-backend parallel --eval-workers 4

Run the mapping service — repeated requests are answered from the persistent
solution store in milliseconds, and new same-task requests warm-start from
remembered solutions (Table V) — then submit queries to it::

    repro-magma serve --store solutions.jsonl --warm-store warm.jsonl
    repro-magma submit --task vision --setting S2 --wait

Scale the service tier out to N replicas by pointing them at one shared
store — ``sqlite:PATH`` for replicas on one host, or a ``tcp://`` store
server for a fleet (every ``--store``/``--warm-store``/``--out`` accepts
these URLs; bare paths mean ``jsonl:``; see docs/SERVICE.md)::

    repro-magma store serve --listen 127.0.0.1:9917 --backing sqlite:shared.sqlite3
    repro-magma serve --port 8787 --store tcp://127.0.0.1:9917 --replica-id a
    repro-magma serve --port 8788 --store tcp://127.0.0.1:9917 --replica-id b
    repro-magma store info tcp://127.0.0.1:9917
    repro-magma store compact sqlite:shared.sqlite3 --max-records 100000

Any search-running command accepts ``--warm-store PATH`` to read/extend the
same cross-run warm-start library::

    repro-magma search --task vision --warm-store warm.jsonl

Observability (docs/OBSERVABILITY.md): ``--trace PATH`` records a structured
JSONL trace of any search-running command (bit-identical results, traced or
not), ``trace summarize`` renders it as a per-phase timeline table, and
``metrics`` dumps the Prometheus-text metrics of this process or of a
running service::

    repro-magma search --task mix --trace search_trace.jsonl
    repro-magma trace summarize search_trace.jsonl
    repro-magma metrics --url http://127.0.0.1:8787
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.accelerator import build_setting, list_settings
from repro.core.evalconfig import DEFAULT_EVAL_BACKEND, EVAL_BACKENDS, EvalConfig
from repro.core.framework import M3E
from repro.core.objectives import list_objectives
from repro.exceptions import ExperimentError, ServiceError
from repro.experiments.settings import get_scale, list_scales
from repro.utils.rng import resolve_seed, set_global_seed
from repro.workloads import TaskType, build_task_workload, list_models

# Each command imports the analysis, experiment and service modules it runs
# inside its handler, so a process loads only what its command uses.


def _cmd_list(_: argparse.Namespace) -> int:
    """Print every registered building block a search or service can be configured from."""
    from repro.experiments import get_scenario, list_scenarios
    from repro.optimizers import list_optimizers

    print("Accelerator settings:", ", ".join(list_settings()))
    print("Optimizers:", ", ".join(list_optimizers()))
    print("Objectives:", ", ".join(list_objectives()))
    print(
        "Evaluation backends:",
        ", ".join(EVAL_BACKENDS),
        f"(default: {DEFAULT_EVAL_BACKEND})",
    )
    print("Scales:", ", ".join(list_scales()), f"(default: {get_scale().name})")
    print("Scenarios:")
    for name in list_scenarios():
        print(f"  - {name}: {get_scenario(name).description}")
    print("Models:")
    for name in list_models():
        print(f"  - {name}")
    return 0


def _session_seed(args: argparse.Namespace) -> int:
    """The run's governing seed: ``--seed`` → ``REPRO_SEED`` → 0.

    The resolved value is installed as the session seed so every seed
    consumer of the command — including any left unseeded — derives from
    the same documented policy (see ``docs/DETERMINISM.md``).
    """
    seed = resolve_seed(getattr(args, "seed", None), default=0)
    set_global_seed(seed, source="cli")
    return seed


def _configure_trace(args: argparse.Namespace) -> None:
    """Honour ``--trace PATH``: enable tracing with a JSONL file sink."""
    path = getattr(args, "trace", None)
    if path:
        from repro.obs import configure_tracing

        configure_tracing(enabled=True, sink_path=path)


def _cmd_search(args: argparse.Namespace) -> int:
    """Run a single mapping search and print the result summary."""
    _configure_trace(args)
    seed = _session_seed(args)
    platform = build_setting(args.setting, args.bandwidth)
    task = TaskType(args.task)
    group = build_task_workload(
        task,
        group_size=args.group_size,
        seed=seed,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    explorer = M3E(
        platform,
        sampling_budget=args.budget,
        warm_store=_warm_library(args),
        eval_config=_eval_config(args),
    )
    result = explorer.search(group, optimizer=args.optimizer, seed=seed)
    print(platform.describe())
    print(
        f"optimizer={result.optimizer_name} throughput={result.throughput_gflops:.2f} GFLOP/s "
        f"makespan={result.schedule.makespan_cycles:.3e} cycles samples={result.samples_used}"
    )
    if args.show_schedule:
        from repro.analysis.gantt import render_ascii_gantt

        print(render_ascii_gantt(result.schedule, group))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Compare several optimizers on one problem and print a table.

    The problem is a one-panel scenario, run through the same cell executor
    as ``experiment`` and ``campaign``.
    """
    from repro.analysis.reporting import ComparisonReport
    from repro.experiments import run_scenario
    from repro.experiments.scenarios import ScenarioRun, ScenarioSpec

    _configure_trace(args)
    scale = get_scale(args.scale)
    spec = ScenarioSpec(
        name="compare",
        description="compare optimizers on one problem",
        settings=(args.setting,),
        bandwidths=(args.bandwidth,),
        tasks=(args.task,),
        methods=tuple(args.optimizers),
        post_process=ScenarioRun.by_panel,
    )
    (results,) = run_scenario(
        spec, scale=scale, seed=_session_seed(args), eval_config=_eval_config(args)
    ).values()
    report = ComparisonReport(
        title=f"{args.task} on {args.setting} (BW={args.bandwidth} GB/s, scale={scale.name})"
    )
    for name, result in results.items():
        report.add(result, name=name)
    print(report.to_text())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run one registered scenario and print the result as JSON.

    Every scenario — paper figure/table or custom sweep — goes through the
    registry, so ``--scale``, ``--seed``, ``--eval-backend``, and
    ``--eval-workers`` apply uniformly.
    """
    from repro.experiments import run_scenario
    from repro.utils.serialization import jsonable

    _configure_trace(args)
    output = run_scenario(
        args.name,
        scale=args.scale,
        seed=_session_seed(args),
        warm_store=_warm_library(args),
        eval_config=_eval_config(args),
    )
    print(json.dumps(jsonable(output), indent=2, sort_keys=True))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Expand scenarios into search cells and stream results to a JSONL store."""
    from repro.experiments import CampaignRunner, spec_from_grid
    from repro.experiments.stats import (
        aggregate_cells,
        cross_seed_agreement,
        replicate_table,
        rows_from_store,
    )

    _configure_trace(args)
    scenarios: list = list(args.scenarios)
    if args.grid:
        with open(args.grid, "r", encoding="utf-8") as handle:
            scenarios.append(spec_from_grid(json.load(handle)))
    if not scenarios:
        raise ExperimentError("campaign needs scenario names and/or --grid")

    engine = CampaignRunner(
        scale=args.scale,
        warm_store=_warm_library(args),
        eval_config=_eval_config(args),
    )
    report = engine.run(
        scenarios,
        store=args.out,
        resume=args.resume,
        base_seed=_session_seed(args),
        seed_replicates=args.seeds,
        progress=print,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.seeds:
        rows = rows_from_store(args.out)
        print(replicate_table(
            aggregate_cells(rows),
            title=f"throughput_gflops across {args.seeds} seed replicates (mean ± std)",
        ))
        for key, info in cross_seed_agreement(rows).items():
            print(
                f"agreement {key}: winner={info['winner']} "
                f"agreement={info['agreement']:.2f} over {info['num_seeds']} seed(s)"
            )
    return 0


def _warm_library(args: argparse.Namespace):
    """The persistent warm-start library named by ``--warm-store``, if any."""
    path = getattr(args, "warm_store", None)
    if not path:
        return None
    from repro.service.warmlib import WarmStartLibrary

    return WarmStartLibrary(path)


def _cmd_store_serve(args: argparse.Namespace) -> int:
    """Serve one local store to the network (the ``tcp://`` backend's server).

    Any number of ``repro-magma serve`` replicas — on any host — can then
    share the store by pointing ``--store tcp://HOST:PORT`` at it.
    """
    import signal

    from repro.service.netstore import NetworkStoreServer, serve_store

    def _announce(server: NetworkStoreServer) -> None:
        print(
            f"store server listening on {server.url} "
            f"(backing: {server.backing.url})",
            flush=True,
        )

    def _graceful(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    try:
        serve_store(args.listen, args.backing, token=args.token, ready=_announce)
    except KeyboardInterrupt:
        print("\nstore server shutting down")
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    """Apply a compaction policy to a store and print what it dropped."""
    from repro.utils.storage import CompactionPolicy, open_store_backend

    policy = CompactionPolicy(
        keep_best_per_fingerprint=not args.no_keep_best,
        max_records=args.max_records,
        max_bytes=args.max_bytes,
    )
    with open_store_backend(args.store) as backend:
        backend.repair()
        kept, dropped = backend.compact(policy)
        print(json.dumps(
            {"store": backend.url, "kept": kept, "dropped": dropped, "policy": policy.to_dict()},
            indent=2, sort_keys=True,
        ))
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    """Print a JSON summary of a store (any backend URL)."""
    from repro.utils.serialization import jsonable
    from repro.utils.storage import open_store_backend

    with open_store_backend(args.store) as backend:
        print(json.dumps(jsonable(backend.describe()), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the mapping service behind the localhost HTTP JSON API."""
    _configure_trace(args)
    import signal

    from repro.service import MappingService, create_server

    service = MappingService(
        store=args.store,
        warm_store=args.warm_store,
        scale=args.scale,
        workers=args.workers,
        eval_config=_eval_config(args),
        replica_id=args.replica_id,
    )
    try:
        server = create_server(service, host=args.host, port=args.port, quiet=False)
    except OSError:
        # Port in use etc.: without this, the service's worker threads would
        # linger after the bind failure (found by the repro-lint review).
        service.close(wait=False)
        raise
    host, port = server.server_address[:2]
    print(f"mapping service listening on http://{host}:{port}")
    print(f"  replica: {service.replica_id}")
    print(f"  solution store: {service.store.url}")
    if service.warm_store is not None:
        print(f"  warm-start library: {service.warm_store.url}")

    def _graceful(signum: int, frame: Any) -> None:
        # SIGTERM (docker stop, kill) drains like Ctrl-C instead of dying
        # mid-job; appends are atomic either way, so even SIGKILL cannot
        # corrupt the store — this just avoids abandoning queued work.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining running jobs)...")
    finally:
        server.server_close()
        service.close(wait=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one mapping request to a running service and print the reply."""
    import time
    import urllib.error
    import urllib.request

    request = {
        "setting": args.setting,
        "bandwidth_gbps": args.bandwidth,
        "task": args.task,
        "objective": args.objective,
        "method": args.optimizer,
        # Resolve client-side so the submitted (and fingerprinted) payload
        # reflects this client's --seed/REPRO_SEED, not the server's.
        "seed": resolve_seed(args.seed, default=0),
    }
    if args.group_size is not None:
        request["group_size"] = args.group_size
    if args.budget is not None:
        request["budget"] = args.budget

    base = args.url.rstrip("/")

    def call(path: str, body: Optional[dict] = None) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        http_request = urllib.request.Request(
            base + path, data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(http_request, timeout=args.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            payload = json.loads(error.read().decode("utf-8") or "{}")
            raise ServiceError(
                f"{path} -> HTTP {error.code}: {payload.get('error', error.reason)}"
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach mapping service at {base}: {error.reason}"
            ) from error

    reply = call("/submit", request)
    if args.wait and "result" not in reply:
        job_id = reply["id"]
        while True:
            status = call(f"/status/{job_id}")
            if status["state"] in ("done", "failed"):
                break
            time.sleep(args.poll)
        reply = call(f"/result/{job_id}")
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump metrics in the Prometheus text format.

    With ``--url`` the dump is scraped from a running mapping service's
    ``GET /metrics``; without it, the registry of this CLI process is
    rendered (useful under ``--trace``-style local runs and in tests).
    """
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/metrics"
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except urllib.error.URLError as error:
            raise ServiceError(f"cannot scrape {url}: {error.reason}") from error
    else:
        from repro.obs import render_prometheus

        sys.stdout.write(render_prometheus())
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Render a recorded JSONL trace as a per-phase timeline table."""
    from repro.obs import render_trace_summary, summarize_trace

    summary = summarize_trace(args.path)
    if not summary["records"]:
        print(f"no trace records in {args.path}")
        return 1
    print(render_trace_summary(summary))
    return 0


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` flag (structured JSONL tracing to a file sink)."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured JSONL trace of this run to PATH "
        "(results stay bit-identical; summarize with 'repro-magma trace summarize PATH')",
    )


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    """The shared ``--seed`` flag (unset defers to ``REPRO_SEED``, then 0)."""
    parser.add_argument(
        "--seed", type=int, default=None, metavar="SEED",
        help="governing seed for the run (default: $REPRO_SEED if set, else 0)",
    )


def _add_warm_store_option(parser: argparse.ArgumentParser) -> None:
    """The persistent warm-start flag shared by search-running commands."""
    parser.add_argument(
        "--warm-store", default=None, metavar="URL",
        help="persistent warm-start library (a path or jsonl:/sqlite:/tcp:// "
        "store URL): searches seed from the best prior same-task solution "
        "and record their winners back",
    )


def _add_eval_backend_options(parser: argparse.ArgumentParser) -> None:
    """The evaluation-backend flags shared by every search-running command."""
    parser.add_argument(
        "--eval-backend",
        default=DEFAULT_EVAL_BACKEND,
        choices=list(EVAL_BACKENDS),
        help="fitness evaluation path: vectorized 'batch' (default), multi-process "
        "'parallel', or the 'scalar' oracle",
    )
    parser.add_argument(
        "--eval-workers",
        type=int,
        default=None,
        metavar="N",
        help="compute lanes for --eval-backend parallel: the coordinator plus "
        "N-1 worker processes (default: one lane per usable CPU, capped at 8)",
    )


def _eval_config(args: argparse.Namespace) -> EvalConfig:
    """The :class:`EvalConfig` the CLI flags describe (M3E/campaign/service)."""
    return EvalConfig(backend=args.eval_backend, workers=args.eval_workers)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro-magma", description=__doc__)
    return _populate_parser(parser)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run repro-lint (the AST invariant checkers) over the given paths."""
    from repro.tools.lint.cli import run_lint

    return run_lint(
        paths=args.paths,
        select=args.select,
        output_format=args.format,
        out=args.out,
        show_suppressed=args.show_suppressed,
        list_codes=args.list_codes,
    )


def _scenario_name(name: str) -> str:
    """A registered scenario name (the argparse ``type`` of ``experiment NAME``).

    Checked only when the command is parsed, so building the parser never
    imports the scenario runners.
    """
    from repro.experiments import list_scenarios

    available = list_scenarios()
    if name not in available:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(available)})"
        )
    return name


def _populate_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list models, settings, optimizers, scenarios")
    list_parser.set_defaults(func=_cmd_list)

    search = subparsers.add_parser("search", help="run one mapping search")
    search.add_argument("--setting", default="S2", choices=list_settings())
    search.add_argument("--bandwidth", type=float, default=16.0)
    search.add_argument("--task", default="mix", choices=[t.value for t in TaskType])
    search.add_argument("--optimizer", default="magma")
    search.add_argument("--group-size", type=int, default=100)
    search.add_argument("--budget", type=int, default=10_000)
    _add_seed_option(search)
    _add_eval_backend_options(search)
    _add_warm_store_option(search)
    search.add_argument("--show-schedule", action="store_true")
    _add_trace_option(search)
    search.set_defaults(func=_cmd_search)

    compare = subparsers.add_parser("compare", help="compare optimizers on one problem")
    compare.add_argument("--setting", default="S2", choices=list_settings())
    compare.add_argument("--bandwidth", type=float, default=16.0)
    compare.add_argument("--task", default="mix", choices=[t.value for t in TaskType])
    compare.add_argument("--optimizers", nargs="+", default=["herald-like", "ai-mt-like", "stdga", "magma"])
    compare.add_argument("--scale", default=None, choices=list_scales())
    _add_seed_option(compare)
    _add_eval_backend_options(compare)
    _add_trace_option(compare)
    compare.set_defaults(func=_cmd_compare)

    experiment = subparsers.add_parser("experiment", help="run one registered scenario")
    experiment.add_argument(
        "name", type=_scenario_name, help="a registered scenario (see 'repro-magma list')"
    )
    experiment.add_argument("--scale", default=None, choices=list_scales())
    _add_seed_option(experiment)
    _add_eval_backend_options(experiment)
    _add_warm_store_option(experiment)
    _add_trace_option(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    campaign = subparsers.add_parser(
        "campaign", help="run scenarios as one resumable stream of search cells"
    )
    campaign.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="registered scenario names to include (see 'repro-magma list')",
    )
    campaign.add_argument(
        "--grid", default=None, metavar="FILE",
        help="JSON file describing an ad-hoc grid scenario "
        "(settings/bandwidths/tasks/methods/objectives/seeds/group_size/budget)",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="skip cells whose fingerprints are already in the --out store",
    )
    campaign.add_argument(
        "--out", default="campaign_results.jsonl", metavar="URL",
        help="results store: a path or jsonl:/sqlite:/tcp:// URL "
        "(default: campaign_results.jsonl)",
    )
    campaign.add_argument("--scale", default=None, choices=list_scales())
    _add_seed_option(campaign)
    campaign.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="run every cell under N seed replicates (seeds 0..N-1) and print "
        "per-cell mean ± std plus cross-seed winner agreement",
    )
    _add_eval_backend_options(campaign)
    _add_warm_store_option(campaign)
    _add_trace_option(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    serve = subparsers.add_parser(
        "serve", help="run the mapping service behind a localhost HTTP JSON API"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--store", default="solutions.jsonl", metavar="URL",
        help="persistent solution store: a path or jsonl:/sqlite:/tcp:// URL "
        "(default: solutions.jsonl; shared backends let several replicas "
        "answer from one store — see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker threads executing queued searches (default: 2)",
    )
    serve.add_argument(
        "--replica-id", default=None, metavar="NAME",
        help="identity this replica reports on /healthz (default: hostname:pid)",
    )
    serve.add_argument("--scale", default=None, choices=list_scales())
    _add_eval_backend_options(serve)
    _add_warm_store_option(serve)
    _add_trace_option(serve)
    serve.set_defaults(func=_cmd_serve)

    store = subparsers.add_parser(
        "store", help="manage pluggable store backends (docs/SERVICE.md)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_serve = store_sub.add_parser(
        "serve",
        help="serve a local store to the network (the tcp:// backend's server)",
    )
    store_serve.add_argument(
        "--listen", default="127.0.0.1:9917", metavar="HOST:PORT",
        help="address to listen on (default: 127.0.0.1:9917; port 0 picks a free port)",
    )
    store_serve.add_argument(
        "--backing", default="sqlite:store.sqlite3", metavar="URL",
        help="local store the server persists through: a jsonl:/sqlite: URL "
        "or a bare path meaning jsonl: (default: sqlite:store.sqlite3)",
    )
    store_serve.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="shared auth token clients must present "
        "(default: the REPRO_RPC_TOKEN environment variable)",
    )
    store_serve.set_defaults(func=_cmd_store_serve)
    store_compact = store_sub.add_parser(
        "compact", help="bound a store: keep best per fingerprint, newest N, size cap"
    )
    store_compact.add_argument("store", metavar="URL", help="store path or URL to compact")
    store_compact.add_argument(
        "--max-records", type=int, default=None, metavar="N",
        help="keep only the newest N surviving records",
    )
    store_compact.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="drop oldest survivors until the rendered store fits BYTES",
    )
    store_compact.add_argument(
        "--no-keep-best", action="store_true",
        help="skip best-per-fingerprint dedup (only apply the size/count bounds)",
    )
    store_compact.set_defaults(func=_cmd_store_compact)
    store_info = store_sub.add_parser(
        "info", help="print a JSON summary of a store (any backend URL)"
    )
    store_info.add_argument("store", metavar="URL", help="store path or URL to inspect")
    store_info.set_defaults(func=_cmd_store_info)

    submit = subparsers.add_parser(
        "submit", help="submit one mapping request to a running service"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8787")
    submit.add_argument("--setting", default="S2", choices=list_settings())
    submit.add_argument("--bandwidth", type=float, default=16.0)
    submit.add_argument("--task", default="mix", choices=[t.value for t in TaskType])
    submit.add_argument("--objective", default="throughput", choices=list_objectives())
    submit.add_argument("--optimizer", default="magma")
    _add_seed_option(submit)
    submit.add_argument("--group-size", type=int, default=None)
    submit.add_argument("--budget", type=int, default=None)
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print the result",
    )
    submit.add_argument("--poll", type=float, default=0.5, metavar="SECONDS")
    submit.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS")
    submit.set_defaults(func=_cmd_submit)

    metrics = subparsers.add_parser(
        "metrics",
        help="dump metrics in the Prometheus text format (docs/OBSERVABILITY.md)",
    )
    metrics.add_argument(
        "--url", default=None, metavar="URL",
        help="scrape GET /metrics of a running service instead of this process's registry",
    )
    metrics.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    metrics.set_defaults(func=_cmd_metrics)

    trace = subparsers.add_parser(
        "trace", help="inspect recorded JSONL traces (docs/OBSERVABILITY.md)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="render a trace as a per-phase timeline table"
    )
    trace_summarize.add_argument("path", metavar="TRACE.jsonl")
    trace_summarize.set_defaults(func=_cmd_trace_summarize)

    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant checkers (docs/STATIC_ANALYSIS.md)",
    )
    from repro.tools.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
