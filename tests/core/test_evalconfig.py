"""Tests for the unified :class:`EvalConfig`.

The contract under test: the config validates every backend/worker/host
combination once, at construction; every entry point takes it as
``eval_config=`` (defaulting to ``EvalConfig()``); and an entry point handed
anything else fails loudly when it is built.
"""

import inspect
import warnings

import pytest

from repro.core import EvalConfig, M3E, MappingEvaluator
from repro.core.evalconfig import DEFAULT_EVAL_BACKEND, EVAL_BACKENDS
from repro.exceptions import ConfigurationError
from repro.experiments.campaign import CampaignRunner
from repro.experiments.runner import run_method_comparison
from repro.experiments.scenarios import run_scenario
from repro.service.service import MappingService

#: Every search entry point that takes ``eval_config=``.
ENTRY_POINTS = {
    "M3E": M3E,
    "MappingEvaluator": MappingEvaluator,
    "CampaignRunner": CampaignRunner,
    "run_scenario": run_scenario,
    "run_method_comparison": run_method_comparison,
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
        assert config.workers is None and config.hosts is None
        assert config.rpc_token is None

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

    def test_hosts_only_for_rpc_and_normalised_to_tuple(self):
        config = EvalConfig(backend="rpc", hosts="a:1, b:2")
        assert config.hosts == ("a:1", "b:2")
        assert EvalConfig(backend="rpc", hosts=["c:3"]).hosts == ("c:3",)
        with pytest.raises(ConfigurationError, match="rpc"):
            EvalConfig(backend="batch", hosts="a:1")
        with pytest.raises(ConfigurationError, match="rpc"):
            EvalConfig(backend="batch", rpc_token="secret")

    def test_malformed_rpc_hosts_fail_at_construction(self):
        with pytest.raises(ConfigurationError):
            EvalConfig(backend="rpc", hosts="no-port-here")

    def test_frozen_and_hashable(self):
        config = EvalConfig(backend="parallel", workers=2)
        with pytest.raises(AttributeError):
            config.backend = "batch"
        assert config == EvalConfig(backend="parallel", workers=2)
        assert hash(config) == hash(EvalConfig(backend="parallel", workers=2))

    def test_token_stays_out_of_repr(self):
        assert "hunter2" not in repr(EvalConfig(backend="rpc", rpc_token="hunter2"))

    def test_no_serialiser_that_would_carry_the_token(self):
        assert not hasattr(EvalConfig(backend="rpc", rpc_token="hunter2"), "to_dict")


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
