"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _eval_config, build_parser, main
from repro.core.evalconfig import EvalConfig
from repro.experiments import list_scenarios


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.setting == "S2"
        assert args.optimizer == "magma"

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("shorthand", ["jobs"])
    def test_campaign_has_one_spelling_for_worker_pools(self, shorthand, capsys):
        """A worker pool is ``--eval-backend parallel --eval-workers N``; the
        old shorthand silently overrode an explicit ``--eval-backend batch``."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "fig8", f"--{shorthand}", "2"])
        assert f"unrecognized arguments: --{shorthand} 2" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["campaign", "fig8", "--eval-backend", "batch"]
        )
        assert _eval_config(args) == EvalConfig(backend="batch")
        args = build_parser().parse_args(
            ["campaign", "fig8", "--eval-backend", "parallel", "--eval-workers", "2"]
        )
        assert _eval_config(args) == EvalConfig(backend="parallel", workers=2)


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "S1" in output and "magma" in output and "resnet50" in output

    def test_list_shows_backends_and_scales(self, capsys):
        """Service configs are discoverable: backends, scales, objectives."""
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Evaluation backends:" in output
        assert "batch" in output and "parallel" in output and "scalar" in output
        assert "Scales:" in output
        assert "tiny" in output and "paper" in output
        assert "Objectives:" in output and "throughput" in output

    def test_search_command_small_run(self, capsys):
        exit_code = main([
            "search", "--setting", "S1", "--task", "vision",
            "--group-size", "12", "--budget", "60", "--optimizer", "stdga",
            "--show-schedule",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "throughput=" in output
        assert "core0" in output

    def test_compare_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        exit_code = main([
            "compare", "--setting", "S1", "--task", "recommendation",
            "--optimizers", "herald-like", "magma", "--scale", "smoke",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "MAGMA" in output and "Herald-like" in output

    def test_compare_reports_a_repeated_optimizer_twice(self, capsys):
        exit_code = main([
            "compare", "--setting", "S1", "--task", "vision",
            "--optimizers", "magma", "magma", "--scale", "tiny",
        ])
        assert exit_code == 0
        rows = [line.split("|")[0].strip() for line in capsys.readouterr().out.splitlines()]
        assert "MAGMA" in rows and "MAGMA#2" in rows

    def test_experiment_command_outputs_json(self, capsys):
        exit_code = main(["experiment", "fig7"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "per_task" in payload and "per_model" in payload


class TestScenarioSmoke:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_every_registered_scenario_runs_and_serializes(self, name, capsys):
        """Every scenario in the registry — paper figure/table or custom
        sweep — must run end to end at the tiny scale and print valid JSON."""
        exit_code = main(["experiment", name, "--scale", "tiny", "--seed", "0"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict) and payload


class TestCampaignCommand:
    def test_campaign_runs_and_resumes(self, capsys, tmp_path):
        out = str(tmp_path / "campaign.jsonl")
        exit_code = main([
            "campaign", "seed-replicates", "--scale", "tiny", "--out", out,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert '"cells_run": 9' in output
        with open(out, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 9
        record = json.loads(lines[0])
        assert record["scenario"] == "seed-replicates"
        assert record["result"]["throughput_gflops"] > 0

        # Resuming a completed campaign re-runs zero cells.
        exit_code = main([
            "campaign", "seed-replicates", "--scale", "tiny", "--out", out, "--resume",
        ])
        assert exit_code == 0
        resumed = capsys.readouterr().out
        assert '"cells_run": 0' in resumed and '"cells_skipped": 9' in resumed

    def test_campaign_with_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "cli-grid",
            "settings": ["S1"],
            "tasks": ["vision"],
            "methods": ["magma", "stdga"],
        }))
        out = str(tmp_path / "campaign.jsonl")
        exit_code = main([
            "campaign", "--grid", str(grid), "--scale", "tiny", "--out", out,
        ])
        assert exit_code == 0
        assert '"cells_run": 2' in capsys.readouterr().out

    def test_campaign_without_scenarios_rejected(self, tmp_path):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["campaign", "--out", str(tmp_path / "x.jsonl")])

    def test_campaign_seeds_flag_prints_uncertainty_and_agreement(self, capsys, tmp_path):
        """Acceptance: ``campaign --seeds 3`` emits per-cell mean ± std plus
        cross-seed winner agreement."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "cli-seeds-grid",
            "settings": ["S1"],
            "tasks": ["vision"],
            "methods": ["magma", "stdga"],
        }))
        out = str(tmp_path / "campaign.jsonl")
        exit_code = main([
            "campaign", "--grid", str(grid), "--scale", "tiny", "--out", out,
            "--seeds", "3",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert '"cells_run": 6' in output  # 2 methods x 3 seeds
        # The uncertainty table: headers plus one row per replicate group.
        assert "mean" in output and "std" in output
        assert "throughput_gflops across 3 seed replicates" in output
        # Cross-seed agreement per (panel, objective) comparison.
        assert "agreement" in output and "winner=" in output
        # Resuming the finished multi-seed campaign re-runs nothing and
        # reports identical statistics from the same store.
        exit_code = main([
            "campaign", "--grid", str(grid), "--scale", "tiny", "--out", out,
            "--seeds", "3", "--resume",
        ])
        assert exit_code == 0
        resumed = capsys.readouterr().out
        assert '"cells_run": 0' in resumed and '"cells_skipped": 6' in resumed
        assert output.splitlines()[-7:] == resumed.splitlines()[-7:]


class TestServiceCommands:
    def test_search_with_warm_store_persists_solution(self, capsys, tmp_path):
        warm = str(tmp_path / "warm.jsonl")
        argv = [
            "search", "--setting", "S1", "--task", "vision",
            "--group-size", "12", "--budget", "60", "--optimizer", "stdga",
            "--warm-store", warm,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        from repro.service import WarmStartLibrary

        library = WarmStartLibrary(warm)
        assert library.known_tasks() == ["vision/throughput"]

    def test_submit_round_trip_against_served_service(self, capsys, tmp_path):
        """`repro-magma submit` talks to a live service over HTTP."""
        from repro.service import MappingService, serve_in_background

        service = MappingService(
            store=str(tmp_path / "solutions.jsonl"), scale="tiny", workers=1
        )
        server, _ = serve_in_background(service, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        try:
            argv = [
                "submit", "--url", f"http://{host}:{port}",
                "--task", "vision", "--setting", "S1", "--wait", "--poll", "0.05",
            ]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["state"] == "done"
            assert payload["result"]["best_fitness"] > 0

            # Submitting again hits the store: the reply carries the result
            # inline (no polling needed) and is marked cached.
            assert main(argv) == 0
            again = json.loads(capsys.readouterr().out)
            assert again["cached"] is True
            assert again["result"] == payload["result"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_submit_without_service_fails_loudly(self, tmp_path):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError, match="cannot reach"):
            main(["submit", "--url", "http://127.0.0.1:9", "--timeout", "1"])


class TestStoreCommands:
    def _seed(self, url):
        from repro.utils.storage import open_store_backend

        with open_store_backend(url) as backend:
            for i in range(6):
                backend.append_record(
                    {"fingerprint": "fp-a" if i % 2 else "fp-b",
                     "result": {"best_fitness": float(i)}}
                )

    def test_store_info_prints_backend_summary(self, capsys, tmp_path):
        url = f"sqlite:{tmp_path / 'db.sqlite3'}"
        self._seed(url)
        assert main(["store", "info", url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sqlite"
        assert payload["records"] == 6
        assert payload["fingerprints"] == 2

    def test_store_compact_applies_policy_and_reports(self, capsys, tmp_path):
        url = f"sqlite:{tmp_path / 'db.sqlite3'}"
        self._seed(url)
        assert main(["store", "compact", url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept"] == 2 and payload["dropped"] == 4
        assert payload["policy"]["keep_best_per_fingerprint"] is True
        from repro.utils.storage import open_store_backend

        with open_store_backend(url) as backend:
            assert len(backend) == 2

    def test_store_compact_max_records(self, capsys, tmp_path):
        url = f"jsonl:{tmp_path / 'db.jsonl'}"
        self._seed(url)
        argv = ["store", "compact", url, "--no-keep-best", "--max-records", "3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept"] == 3 and payload["dropped"] == 3

    def test_store_serve_parser_defaults(self):
        args = build_parser().parse_args(["store", "serve"])
        assert args.listen == "127.0.0.1:9917"
        assert args.backing == "sqlite:store.sqlite3"

    def test_serve_parser_accepts_replica_id_and_store_url(self):
        args = build_parser().parse_args(
            ["serve", "--store", "tcp://127.0.0.1:9917", "--replica-id", "a"]
        )
        assert args.store == "tcp://127.0.0.1:9917"
        assert args.replica_id == "a"
