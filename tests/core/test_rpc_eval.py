"""Tests for the multi-host RPC evaluation backend.

The ``rpc`` backend must be a drop-in replacement for ``batch``/``parallel``
(and therefore for the ``scalar`` oracle): bit-identical fitnesses, history,
best-encoding, and budget accounting — the worker fleet is purely a
throughput device.  Workers here are spawned *in process* on localhost
(ephemeral ports), which exercises the real socket protocol without needing
real parallelism; the perf claim lives in
``benchmarks/test_rpc_eval_speed.py``.

Fault tolerance is tested deterministically: a worker that aborts its
connection on the first ``eval`` request is observationally identical to a
worker process killed mid-shard (the coordinator sees the connection die),
without the timing races of an actual ``kill``.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.accelerator import build_setting
from repro.core.evalconfig import EvalConfig
from repro.core.evaluator import EVAL_BACKENDS, MappingEvaluator
from repro.core.framework import M3E
from repro.core.parallel import EvaluatorSpec
from repro.core.rpc import (
    EvalWorkerServer,
    RpcEvaluationPool,
    RpcWorkerClient,
    parse_hosts,
    recv_frame,
    send_frame,
    split_chunks,
)
from repro.exceptions import ConfigurationError, RpcError, WorkerDiedError
from repro.workloads import TaskType, build_task_workload

TOKEN = "test-secret"


def _problem(setting: str, bandwidth: float, group_size: int, seed: int = 0):
    platform = build_setting(setting, bandwidth)
    group = build_task_workload(
        TaskType.MIX,
        group_size=group_size,
        seed=seed,
        num_sub_accelerators=platform.num_sub_accelerators,
    )[0]
    return platform, group


def _spec_for(evaluator: MappingEvaluator) -> EvaluatorSpec:
    return EvaluatorSpec.capture(
        evaluator.codec, evaluator.batch_allocator, evaluator.table, evaluator.objective
    )


@pytest.fixture()
def workers():
    """Two live in-process evaluation workers on localhost ephemeral ports."""
    servers = [EvalWorkerServer(token=TOKEN).start() for _ in range(2)]
    yield servers
    for server in servers:
        server.shutdown()


def _rpc_config(addresses) -> EvalConfig:
    return EvalConfig(backend="rpc", hosts=list(addresses), rpc_token=TOKEN)


def _rpc_evaluator(group, platform, servers, **kwargs) -> MappingEvaluator:
    return MappingEvaluator(
        group,
        platform,
        eval_config=_rpc_config(server.address for server in servers),
        **kwargs,
    )


class AbortingWorker(EvalWorkerServer):
    """A worker that dies (aborts its connection) on the Nth eval request.

    From the coordinator's point of view this is exactly a worker process
    killed mid-shard: the connection drops without a reply, after the
    bootstrap handshake succeeded.
    """

    def __init__(self, die_on_eval: int = 1, **kwargs):
        super().__init__(**kwargs)
        self.die_on_eval = die_on_eval
        self._eval_requests = 0

    def _eval(self, rig, rows):
        with self._lock:
            self._eval_requests += 1
            count = self._eval_requests
        if count >= self.die_on_eval:
            raise WorkerDiedError("injected mid-population worker death")
        return super()._eval(rig, rows)


class TestProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = b"x" * 100_000
            send_frame(left, payload)
            assert recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_closed_peer_raises_worker_died(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(WorkerDiedError):
                recv_frame(right)
        finally:
            right.close()

    def test_parse_hosts_forms(self):
        assert parse_hosts(None) == []
        assert parse_hosts("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_hosts(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        assert parse_hosts("127.0.0.1:9123,") == [("127.0.0.1", 9123)]

    @pytest.mark.parametrize("bad", ["nocolon", ":9", "h:", "h:notaport", "h:0", "h:70000"])
    def test_parse_hosts_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_hosts(bad)

    def test_wrong_token_rejected_without_killing_worker(self, workers):
        server = workers[0]
        bad = RpcWorkerClient(server.host, server.port, token="wrong")
        with pytest.raises(RpcError, match="rejected the authentication token"):
            bad.connect()
        # The worker survives a failed auth and still serves good clients.
        good = RpcWorkerClient(server.host, server.port, token=TOKEN)
        good.connect()
        assert good.heartbeat()
        good.close()

    def test_heartbeat_false_after_worker_shutdown(self):
        server = EvalWorkerServer(token=TOKEN).start()
        client = RpcWorkerClient(server.host, server.port, token=TOKEN)
        client.connect()
        assert client.heartbeat()
        server.shutdown()
        # The worker's side of the conversation is gone; the next heartbeat
        # must come back False (reset, EOF, or timeout — never an exception).
        assert not client.heartbeat(timeout=2.0)
        client.close()

    def test_empty_token_refused_on_non_loopback_listen(self):
        """Post-auth frames are pickle; an open 0.0.0.0 listener with no
        token would be unauthenticated remote code execution."""
        with pytest.raises(ConfigurationError, match="non-loopback"):
            EvalWorkerServer(host="0.0.0.0", token="")
        # Loopback with an empty token stays fine (local development).
        server = EvalWorkerServer(host="127.0.0.1", token="")
        server.shutdown()

    def test_oversized_auth_frame_dropped_without_buffering(self, workers):
        """An unauthenticated peer cannot make the worker buffer a huge
        'token': the connection dies at the length prefix."""
        server = workers[0]
        conn = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(conn, b"x" * 100_000)  # far above MAX_AUTH_FRAME_BYTES
            conn.settimeout(5.0)
            # Closed without an auth reply: clean EOF or a reset (the worker
            # drops the connection with our unread bytes still in flight).
            try:
                assert conn.recv(1) == b""
            except ConnectionResetError:
                pass
        finally:
            conn.close()
        # The worker survives and still serves authenticated clients.
        good = RpcWorkerClient(server.host, server.port, token=TOKEN)
        good.connect()
        assert good.heartbeat()
        good.close()

    def test_eval_before_bootstrap_is_a_protocol_error(self, workers):
        client = RpcWorkerClient(workers[0].host, workers[0].port, token=TOKEN)
        client.connect()
        try:
            with pytest.raises(RpcError, match="eval before bootstrap"):
                client.evaluate(np.zeros((4, 4)))
        finally:
            client.close()

    def test_worker_checks_rows_arriving_over_the_wire(self, workers):
        """The worker repairs every shard it receives: malformed rows are a
        protocol error (the connection stays usable), out-of-domain genes
        are projected exactly as the coordinator's repair projects them."""
        platform, group = _problem("S2", 16.0, 10)
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        codec = batch.codec
        client = RpcWorkerClient(workers[0].host, workers[0].port, token=TOKEN)
        client.connect()
        try:
            client.bootstrap(_spec_for(batch))
            width = codec.encoding_length
            with pytest.raises(RpcError, match="population must be"):
                client.evaluate(np.zeros((3, width + 1)))
            nan_row = np.full((1, width), 0.5)
            nan_row[0, 0] = np.nan
            with pytest.raises(RpcError, match="non-finite"):
                client.evaluate(nan_row)
            # Core genes equal to A, fractional and negative, priorities
            # outside [0, 1): each must score as its repaired row does.
            raw = np.random.default_rng(2).uniform(-1.0, 1.5, size=(6, width))
            raw[:, : codec.num_jobs] *= codec.num_sub_accelerators
            raw[0, : codec.num_jobs] = codec.num_sub_accelerators
            raw[1, 0] = 1.7
            expected = batch.evaluate_population(raw, count_samples=False)
            assert np.array_equal(client.evaluate(raw), expected)
        finally:
            client.close()


class TestRpcBackendEquivalence:
    @pytest.mark.parametrize("setting,bandwidth,group_size,objective", [
        ("S1", 16.0, 10, "throughput"),
        ("S2", 2.0, 12, "latency"),
        ("S3", 64.0, 16, "throughput"),
        ("S2", 16.0, 12, "energy"),  # needs_mapping objective inside workers
    ])
    def test_population_evaluation_bitwise_identical_to_scalar_oracle(
        self, workers, setting, bandwidth, group_size, objective
    ):
        """Property: the rpc backend matches the scalar oracle bit for bit —
        fitnesses, history, budget, and best encoding."""
        platform, group = _problem(setting, bandwidth, group_size)
        scalar = MappingEvaluator(group, platform, objective=objective,
                                  sampling_budget=400, eval_config=EvalConfig(backend="scalar"))
        rpc = _rpc_evaluator(group, platform, workers,
                             objective=objective, sampling_budget=400)
        rng = np.random.default_rng(11)
        try:
            for _ in range(3):
                population = scalar.codec.random_population(30, rng)
                assert np.array_equal(
                    scalar.evaluate_population(population),
                    rpc.evaluate_population(population),
                )
            assert scalar.history == rpc.history
            assert scalar.samples_used == rpc.samples_used
            assert np.array_equal(scalar.best_encoding, rpc.best_encoding)
            assert scalar.best_fitness == rpc.best_fitness
        finally:
            rpc.close()

    def test_out_of_domain_population_identical_to_batch(self, workers):
        """Repair happens in the coordinator, so raw real vectors from
        continuous optimizers score identically on every backend."""
        platform, group = _problem("S2", 16.0, 10)
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = _rpc_evaluator(group, platform, workers)
        rng = np.random.default_rng(5)
        population = rng.normal(scale=4.0, size=(40, batch.codec.encoding_length))
        try:
            assert np.array_equal(
                batch.evaluate_population(population, count_samples=False),
                rpc.evaluate_population(population, count_samples=False),
            )
        finally:
            rpc.close()

    def test_budget_truncation_identical_to_batch(self, workers):
        platform, group = _problem("S2", 16.0, 10)
        batch = MappingEvaluator(group, platform, sampling_budget=7, eval_config=EvalConfig(backend="batch"))
        rpc = _rpc_evaluator(group, platform, workers, sampling_budget=7)
        population = batch.codec.random_population(10, rng=0)
        try:
            assert np.array_equal(
                batch.evaluate_population(population),
                rpc.evaluate_population(population),
            )
            assert rpc.samples_used == 7
            assert batch.history == rpc.history
        finally:
            rpc.close()

    def test_cache_merges_into_coordinator(self, workers):
        """Worker results must land in the coordinator's memo cache: a repeat
        generation is served without touching the fleet again."""
        platform, group = _problem("S2", 16.0, 10)
        evaluator = _rpc_evaluator(group, platform, workers)
        population = evaluator.codec.random_population(24, rng=4)
        first = evaluator.evaluate_population(population, count_samples=False)
        assert evaluator._pool.is_running  # 24 rows -> two shards, real dispatch
        assert len(evaluator._fitness_cache) == 24
        evals_before = sum(server.evals_served for server in workers)
        assert evals_before == 2  # one shard per worker
        second = evaluator.evaluate_population(population, count_samples=False)
        assert np.array_equal(first, second)
        assert sum(server.evals_served for server in workers) == evals_before
        evaluator.close()
        assert not evaluator._pool.is_running

    def test_tiny_populations_run_inline_without_dialing_workers(self, workers):
        platform, group = _problem("S1", 16.0, 8)
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = _rpc_evaluator(group, platform, workers)
        population = batch.codec.random_population(6, rng=2)
        assert np.array_equal(
            batch.evaluate_population(population, count_samples=False),
            rpc.evaluate_population(population, count_samples=False),
        )
        # 6 rows is below MIN_ROWS_PER_WORKER: evaluated locally, fleet
        # never dialed (a round trip would cost more than the simulation).
        assert not rpc._pool.is_running
        assert all(server.connections_served == 0 for server in workers)
        rpc.close()

    def test_single_host_fleet_is_actually_used(self):
        """A fleet of one host was configured to take work off the
        coordinator: real populations must be dispatched to it, not
        silently evaluated inline."""
        platform, group = _problem("S2", 16.0, 10)
        server = EvalWorkerServer(token=TOKEN).start()
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = MappingEvaluator(group, platform, eval_config=_rpc_config([server.address]))
        population = batch.codec.random_population(40, rng=12)
        try:
            assert np.array_equal(
                batch.evaluate_population(population, count_samples=False),
                rpc.evaluate_population(population, count_samples=False),
            )
            # Work-stealing dispatch: 40 rows at the default 16-row chunk
            # height is three chunks (16 + 16 + 8), all pulled by the one host.
            assert server.evals_served == 3 and server.rows_served == 40
        finally:
            rpc.close()
            server.shutdown()

    def test_search_results_identical_to_batch(self, workers):
        """End to end: a full MAGMA search is backend-invariant."""
        platform, group = _problem("S2", 16.0, 12)
        results = {}
        for backend in ("batch", "rpc"):
            explorer = M3E(
                platform,
                sampling_budget=150,
                eval_config=(
                    _rpc_config(s.address for s in workers)
                    if backend == "rpc"
                    else EvalConfig(backend=backend)
                ),
            )
            results[backend] = explorer.search(
                group, optimizer="magma", seed=13,
                optimizer_options={"population_size": 10},
            )
        assert results["batch"].best_fitness == results["rpc"].best_fitness
        assert np.array_equal(
            results["batch"].best_encoding, results["rpc"].best_encoding
        )
        assert results["batch"].history == results["rpc"].history

    def test_no_hosts_is_bit_identical_local_fallback(self):
        """The degenerate no-fleet pool evaluates locally, bit-identically —
        this is also why the generic all-backends loops in the batch-eval
        tests can construct an rpc evaluator without any workers."""
        platform, group = _problem("S2", 16.0, 10)
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="rpc"))
        population = batch.codec.random_population(30, rng=9)
        assert np.array_equal(
            batch.evaluate_population(population, count_samples=False),
            rpc.evaluate_population(population, count_samples=False),
        )
        rpc.close()


class TestFaultTolerance:
    def test_worker_killed_mid_population_is_redispatched(self):
        """One of two workers dies on its first shard: the survivor picks up
        the orphaned shard and the result is still bit-identical."""
        platform, group = _problem("S2", 16.0, 10)
        dying = AbortingWorker(die_on_eval=1, token=TOKEN).start()
        healthy = EvalWorkerServer(token=TOKEN).start()
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = MappingEvaluator(
            group, platform, eval_config=_rpc_config([dying.address, healthy.address])
        )
        population = batch.codec.random_population(40, rng=6)
        try:
            reference = batch.evaluate_population(population, count_samples=False)
            observed = rpc.evaluate_population(population, count_samples=False)
            assert np.array_equal(observed, reference)
            # Silent recovery is banned: the strike-off left structured
            # warning events with host and chunk identity in the tracer
            # ring, even though tracing was never enabled.
            from repro.obs import get_tracer

            dead_events = get_tracer().records(kind="event", name="rpc.host-dead")
            assert any(e["attrs"]["host"] == dying.address for e in dead_events)
            requeued = get_tracer().records(kind="event", name="rpc.chunk-requeued")
            assert requeued and all(len(e["attrs"]["chunk"]) == 2 for e in requeued)
            # The dying host is struck off and the survivor did real work:
            # the dying worker never completes a chunk, so every one of the
            # three chunks (40 rows / 16-row height) lands on the survivor —
            # including the one stolen back from the dead host's queue slot.
            assert rpc._pool.num_live_hosts == 1
            assert healthy.evals_served == 3
            # Later generations proceed on the survivor alone, still correct.
            again = rpc.evaluate_population(
                batch.codec.random_population(40, rng=7), count_samples=False
            )
            batch._fitness_cache.clear()
            assert np.array_equal(
                again,
                batch.evaluate_population(
                    batch.codec.random_population(40, rng=7), count_samples=False
                ),
            )
        finally:
            rpc.close()
            dying.shutdown()
            healthy.shutdown()

    def test_all_workers_dead_falls_back_to_local_evaluation(self):
        platform, group = _problem("S2", 16.0, 10)
        dying = [AbortingWorker(die_on_eval=1, token=TOKEN).start() for _ in range(2)]
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = MappingEvaluator(
            group, platform, eval_config=_rpc_config(server.address for server in dying)
        )
        population = batch.codec.random_population(40, rng=8)
        try:
            assert np.array_equal(
                rpc.evaluate_population(population, count_samples=False),
                batch.evaluate_population(population, count_samples=False),
            )
            assert rpc._pool.num_live_hosts == 0
            # The stranded chunks' landing on the coordinator is an event,
            # not a silence.
            from repro.obs import get_tracer

            fallback = get_tracer().records(kind="event", name="rpc.local-fallback")
            assert fallback and fallback[-1]["attrs"]["chunks"]
        finally:
            rpc.close()
            for server in dying:
                server.shutdown()

    def test_unreachable_host_skipped_at_connect(self, workers):
        """A host that never answers is marked dead at dial time; the live
        workers (or the local rig) still produce the exact result."""
        platform, group = _problem("S2", 16.0, 10)
        # Grab a port with no listener behind it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = "%s:%d" % probe.getsockname()[:2]
        probe.close()
        batch = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rpc = MappingEvaluator(
            group, platform, eval_config=_rpc_config([dead_address, workers[0].address])
        )
        population = batch.codec.random_population(40, rng=10)
        try:
            assert np.array_equal(
                rpc.evaluate_population(population, count_samples=False),
                batch.evaluate_population(population, count_samples=False),
            )
            assert rpc._pool.num_live_hosts == 1
        finally:
            rpc.close()


class TestPool:
    def test_warm_up_connects_and_close_keeps_workers_alive(self, workers):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        pool = RpcEvaluationPool(
            _spec_for(evaluator),
            hosts=[server.address for server in workers],
            token=TOKEN,
        )
        assert pool.warm_up() == 2
        assert pool.is_running
        pool.close()
        assert not pool.is_running
        # close() drops connections only; the workers keep serving and the
        # pool can re-dial them.
        assert pool.warm_up() == 2
        pool.close()

    def test_empty_population_needs_no_workers(self, workers):
        platform, group = _problem("S1", 16.0, 8)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        pool = RpcEvaluationPool(
            _spec_for(evaluator),
            hosts=[server.address for server in workers],
            token=TOKEN,
        )
        out = pool.evaluate(np.empty((0, evaluator.codec.encoding_length)))
        assert out.shape == (0,)
        assert not pool.is_running
        pool.close()


class TestConfiguration:
    def test_rpc_listed_as_backend(self):
        assert "rpc" in EVAL_BACKENDS

    def test_rejects_hosts_on_other_backends(self):
        platform, group = _problem("S1", 16.0, 8)
        with pytest.raises(ConfigurationError):
            MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch", hosts="a:1"))
        with pytest.raises(ConfigurationError):
            M3E(platform, eval_config=EvalConfig(backend="parallel", hosts="a:1"))
        with pytest.raises(ConfigurationError):
            M3E(platform, eval_config=EvalConfig(backend="batch", rpc_token="t"))

    def test_rejects_num_workers_on_rpc(self):
        platform, group = _problem("S1", 16.0, 8)
        with pytest.raises(ConfigurationError):
            MappingEvaluator(group, platform, eval_config=EvalConfig(backend="rpc", workers=2))

    def test_malformed_hosts_fail_at_construction(self):
        platform, _ = _problem("S1", 16.0, 8)
        with pytest.raises(ConfigurationError):
            M3E(platform, eval_config=EvalConfig(backend="rpc", hosts="not-an-address"))

    def test_campaign_and_service_reject_hosts_on_other_backends(self, tmp_path):
        """The campaign/serve paths must fail as loudly as search/compare —
        never silently run a 'fleet-configured' campaign locally."""
        from repro.experiments.campaign import CampaignRunner
        from repro.service import MappingService

        with pytest.raises(ConfigurationError):
            CampaignRunner(eval_config=EvalConfig(backend="batch", hosts="a:1"))
        with pytest.raises(ConfigurationError):
            MappingService(
                store=str(tmp_path / "s.jsonl"), scale="tiny",
                eval_config=EvalConfig(backend="parallel", hosts="a:1"),
            )


class TestServiceFanOut:
    def test_service_jobs_fan_out_to_remote_hosts_bit_identically(self, tmp_path, workers):
        """A MappingService on the rpc backend produces the same stored
        solution as the threaded default — service jobs genuinely ride the
        remote fleet."""
        from repro.service import MappingService

        request = {"task": "vision", "seed": 5}
        summaries = {}
        for backend in ("batch", "rpc"):
            service = MappingService(
                store=str(tmp_path / f"solutions-{backend}.jsonl"),
                scale="tiny",
                eval_config=(
                    _rpc_config(s.address for s in workers)
                    if backend == "rpc"
                    else EvalConfig(backend=backend)
                ),
                workers=1,
            )
            job = service.submit(request)
            assert service.wait(job.job_id, timeout=120)
            summaries[backend] = service.result(job.job_id)
            service.close()
        assert summaries["rpc"].to_dict() == summaries["batch"].to_dict()


class TestCli:
    def test_eval_worker_command_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["eval-worker", "--listen", "127.0.0.1:0"])
        assert args.listen == "127.0.0.1:0"
        assert args.func.__name__ == "_cmd_eval_worker"

    def test_rpc_backend_requires_hosts_on_cli(self):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="--eval-hosts"):
            main(["search", "--eval-backend", "rpc", "--budget", "10"])

    def test_search_command_over_rpc_matches_batch(self, workers, capsys):
        from repro.cli import main

        common = [
            "search", "--setting", "S1", "--task", "vision",
            "--group-size", "12", "--budget", "60", "--optimizer", "stdga",
        ]
        assert main(common) == 0
        batch_out = capsys.readouterr().out
        assert main(common + [
            "--eval-backend", "rpc",
            "--eval-hosts", ",".join(server.address for server in workers),
            "--eval-rpc-token", TOKEN,
        ]) == 0
        rpc_out = capsys.readouterr().out
        assert rpc_out == batch_out


class TestWorkerLifecycle:
    def test_shutdown_request_stops_the_server(self):
        server = EvalWorkerServer(token=TOKEN).start()
        client = RpcWorkerClient(server.host, server.port, token=TOKEN)
        client.connect()
        client.request_shutdown()
        client.close()
        # The ok reply races the handler finishing the shutdown; within a
        # moment new connections must be refused (listener closed).
        import time

        deadline = time.monotonic() + 5.0
        while True:
            try:
                socket.create_connection((server.host, server.port), timeout=1.0).close()
            except OSError:
                break
            assert time.monotonic() < deadline, "listener still accepting after shutdown"
            time.sleep(0.05)

    def test_one_worker_serves_sequential_coordinators(self):
        """Workers are long-lived: two searches (two pools) reuse one worker."""
        platform, group = _problem("S1", 16.0, 8)
        server = EvalWorkerServer(token=TOKEN).start()
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(20, rng=1))
        reference = evaluator._rig.fitnesses_for_rows(rows)
        try:
            for round_number in (1, 2):
                with RpcEvaluationPool(
                    _spec_for(evaluator), hosts=[server.address], token=TOKEN
                ) as pool:
                    assert np.array_equal(pool.evaluate(rows), reference)
                # 20 rows with one host = two work-stealing chunks (16 + 4).
                assert server.evals_served == 2 * round_number
            assert server.connections_served == 2
        finally:
            server.shutdown()

    def test_concurrent_coordinators_share_one_worker(self):
        """The service drives several searches at once; each connection gets
        its own rig and they must not interfere."""
        platform, group = _problem("S2", 16.0, 10)
        server = EvalWorkerServer(token=TOKEN).start()
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        rows = evaluator.codec.repair_batch(evaluator.codec.random_population(24, rng=2))
        reference = evaluator._rig.fitnesses_for_rows(rows)
        errors = []

        def drive():
            try:
                client = RpcWorkerClient(server.host, server.port, token=TOKEN)
                client.connect()
                client.bootstrap(_spec_for(evaluator))
                for _ in range(3):
                    if not np.array_equal(client.evaluate(rows), reference):
                        errors.append("mismatch")
                client.close()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(repr(error))

        threads = [threading.Thread(target=drive) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.shutdown()
        assert not errors


class SlowWorker(EvalWorkerServer):
    """A healthy but slow worker: every reply is correct, just late.

    Under work-stealing dispatch a slow host simply pulls fewer chunks from
    the shared queue; it must never change the gathered fitnesses.
    """

    def __init__(self, delay_s: float = 0.1, **kwargs):
        super().__init__(**kwargs)
        self.delay_s = delay_s

    def _eval(self, rig, rows):
        time.sleep(self.delay_s)
        return super()._eval(rig, rows)


class TestWorkStealingProperties:
    """Chunked work-stealing over the fleet must be invisible in the results.

    Counterpart of the parallel-backend property suite
    (``tests/core/test_parallel_eval.py::TestShardingProperties``): for
    every chunk size and fault schedule (slow host, host killed mid-chunk)
    the gathered fitnesses are bit-identical to the in-process batch sweep —
    chunking and steal order are pure throughput devices.
    """

    @pytest.fixture()
    def spec_rows_reference(self):
        platform, group = _problem("S2", 16.0, 10)
        evaluator = MappingEvaluator(group, platform, eval_config=EvalConfig(backend="batch"))
        spec = _spec_for(evaluator)
        rows = evaluator.codec.repair_batch(
            evaluator.codec.random_population(73, rng=5)
        )
        return spec, rows, spec.build_rig().fitnesses_for_rows(rows)

    def test_split_chunks_contract(self):
        assert split_chunks(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert split_chunks(8, 8) == [(0, 8)]
        assert split_chunks(0, 16) == []
        with pytest.raises(ConfigurationError):
            split_chunks(10, 0)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 16, 50])
    def test_arbitrary_chunk_sizes_bit_identical(
        self, workers, spec_rows_reference, chunk_rows
    ):
        spec, rows, reference = spec_rows_reference
        pool = RpcEvaluationPool(
            spec,
            hosts=[server.address for server in workers],
            token=TOKEN,
            chunk_rows=chunk_rows,
        )
        try:
            assert np.array_equal(pool.evaluate(rows), reference)
        finally:
            pool.close()

    def test_slow_worker_steals_less_but_stays_bit_identical(
        self, spec_rows_reference
    ):
        spec, rows, reference = spec_rows_reference
        slow = SlowWorker(delay_s=0.1, token=TOKEN).start()
        fast = EvalWorkerServer(token=TOKEN).start()
        pool = RpcEvaluationPool(
            spec, hosts=[slow.address, fast.address], token=TOKEN, chunk_rows=4
        )
        try:
            assert np.array_equal(pool.evaluate(rows), reference)
            # 73 rows at height 4 is 19 chunks.  The slow host sleeps 100ms
            # per chunk while the fast host clears the whole queue in well
            # under that, so stealing must have skewed the split — yet both
            # hosts did real work (each popped at least its first chunk).
            assert slow.evals_served >= 1
            assert fast.evals_served > slow.evals_served
        finally:
            pool.close()
            slow.shutdown()
            fast.shutdown()

    def test_killed_worker_with_tiny_chunks_bit_identical(
        self, spec_rows_reference
    ):
        """A host that serves two chunks and then dies mid-queue: its third
        chunk is requeued for the survivor and later generations keep
        working, all bit-identical."""
        spec, rows, reference = spec_rows_reference
        dying = AbortingWorker(die_on_eval=3, token=TOKEN).start()
        healthy = EvalWorkerServer(token=TOKEN).start()
        pool = RpcEvaluationPool(
            spec, hosts=[dying.address, healthy.address], token=TOKEN, chunk_rows=5
        )
        try:
            assert np.array_equal(pool.evaluate(rows), reference)
            assert pool.num_live_hosts == 1
            # Next generation proceeds on the survivor alone, still exact.
            assert np.array_equal(pool.evaluate(rows), reference)
        finally:
            pool.close()
            dying.shutdown()
            healthy.shutdown()
