"""Tests for the unified :class:`EvalConfig`.

The contract under test: the config validates every backend/worker
combination once, at construction; every entry point takes it as
``eval_config=`` (defaulting to ``EvalConfig()``); and an entry point handed
anything else fails loudly when it is built.
"""

import importlib
import inspect
import warnings

import pytest

from repro.core import EvalConfig, M3E, MappingEvaluator
from repro.cli import build_parser
from repro.core.evalconfig import DEFAULT_EVAL_BACKEND, EVAL_BACKENDS
from repro.exceptions import ConfigurationError
from repro.experiments.campaign import CampaignRunner
from repro.experiments.scenarios import run_scenario
from repro.service.service import MappingService

#: Every search entry point that takes ``eval_config=``.
ENTRY_POINTS = {
    "M3E": M3E,
    "MappingEvaluator": MappingEvaluator,
    "CampaignRunner": CampaignRunner,
    "run_scenario": run_scenario,
    "MappingService": MappingService,
}

#: The per-field keywords ``eval_config=`` replaced.
LEGACY_KWARGS = {
    "eval_backend": "batch",
    "eval_workers": 2,
    "eval_hosts": "a:1",
    "rpc_token": "secret",
}


class TestEvalConfigValidation:
    def test_defaults(self):
        config = EvalConfig()
        assert config.backend == DEFAULT_EVAL_BACKEND
        assert config.workers is None

    def test_every_registered_backend_constructs(self):
        for backend in EVAL_BACKENDS:
            assert EvalConfig(backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown evaluation backend"):
            EvalConfig(backend="gpu")

    def test_workers_only_for_parallel(self):
        assert EvalConfig(backend="parallel", workers=2).workers == 2
        with pytest.raises(ConfigurationError, match="parallel"):
            EvalConfig(backend="batch", workers=2)
        with pytest.raises(ConfigurationError, match=">= 1"):
            EvalConfig(backend="parallel", workers=0)

    def test_frozen_and_hashable(self):
        config = EvalConfig(backend="parallel", workers=2)
        with pytest.raises(AttributeError):
            config.backend = "batch"
        assert config == EvalConfig(backend="parallel", workers=2)
        assert hash(config) == hash(EvalConfig(backend="parallel", workers=2))


class TestEntryPointsAcceptEvalConfig:
    def test_m3e_defaults_to_the_default_config(self, small_platform):
        assert M3E(small_platform).eval_config == EvalConfig()

    def test_m3e_threads_eval_config_into_its_evaluators(self, small_platform, mix_group):
        config = EvalConfig(backend="scalar")
        engine = M3E(small_platform, sampling_budget=60, eval_config=config)
        evaluator = engine.build_evaluator(mix_group)
        assert evaluator.eval_config is config
        assert evaluator.backend == "scalar"

    def test_non_evalconfig_object_rejected(self, small_platform, mix_group):
        with pytest.raises(ConfigurationError, match="must be an EvalConfig"):
            M3E(small_platform, eval_config={"backend": "batch"})
        with pytest.raises(ConfigurationError, match="must be an EvalConfig"):
            MappingEvaluator(mix_group, small_platform, eval_config="batch")

    def test_campaign_runner_threads_eval_config_through(self, small_platform):
        runner = CampaignRunner(eval_config=EvalConfig(backend="scalar"))
        assert runner.eval_config == EvalConfig(backend="scalar")
        assert runner.explorer(small_platform).eval_config == runner.eval_config

    def test_campaign_runner_default_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner = CampaignRunner()
        assert runner.eval_config == EvalConfig()


class TestOneConfigPath:
    """``eval_config=`` is the only way in: the per-field keywords it replaced
    are gone from every entry point, not silently accepted."""

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_entry_point_defaults_to_the_default_config(self, name):
        parameter = inspect.signature(ENTRY_POINTS[name]).parameters["eval_config"]
        assert parameter.default == EvalConfig()

    @pytest.mark.parametrize("kwarg", sorted(LEGACY_KWARGS))
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_legacy_keyword_is_a_type_error(self, name, kwarg):
        # Binding fails before the body runs, so placeholders suffice for
        # the required positional arguments.
        entry = ENTRY_POINTS[name]
        required = [
            parameter for parameter in inspect.signature(entry).parameters.values()
            if parameter.default is inspect.Parameter.empty
        ]
        with pytest.raises(TypeError, match=kwarg):
            entry(*([None] * len(required)), **{kwarg: LEGACY_KWARGS[kwarg]})

    @pytest.mark.parametrize("kwarg", ["backend", "num_workers"])
    def test_evaluator_convenience_keywords_are_gone(self, small_platform, mix_group, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            MappingEvaluator(mix_group, small_platform, **{kwarg: 2})

    @pytest.mark.parametrize("alias", sorted(LEGACY_KWARGS))
    def test_m3e_has_no_legacy_alias_property(self, small_platform, alias):
        assert not hasattr(M3E(small_platform), alias)

    def test_rpc_backend_is_gone(self):
        assert EVAL_BACKENDS == ("scalar", "batch", "parallel")
        with pytest.raises(ConfigurationError) as raised:
            EvalConfig(backend="rpc")
        for backend in EVAL_BACKENDS:
            assert repr(backend) in str(raised.value)

    @pytest.mark.parametrize("field", ["hosts", "rpc_token"])
    def test_removed_fields_are_type_errors(self, field):
        with pytest.raises(TypeError, match=field):
            EvalConfig(**{field: "a:1"})

    @pytest.mark.parametrize("argv,complaint", [
        (["eval-worker", "--listen", "127.0.0.1:0"], "invalid choice: 'eval-worker'"),
        (["search", "--eval-hosts", "a:1"], "unrecognized arguments: --eval-hosts"),
        (["search", "--eval-rpc-token", "t"], "unrecognized arguments: --eval-rpc-token"),
    ], ids=["command", "flag", "token-flag"])
    def test_parser_rejects_removed_commands_and_flags(self, argv, complaint, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert complaint in capsys.readouterr().err

    def test_rpc_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.rpc")
