"""Tests for the model zoo and its registry."""

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.layers import LayerType
from repro.workloads.models import MODEL_REGISTRY, ModelFamily, get_model, list_models, models_for_family


class TestRegistry:
    def test_all_three_families_are_populated(self):
        for family in ModelFamily:
            assert len(models_for_family(family)) >= 3

    def test_list_models_filters_by_family(self):
        vision_models = list_models(ModelFamily.VISION)
        assert "resnet50" in vision_models
        assert "gpt2" not in vision_models

    def test_get_model_unknown_name(self):
        with pytest.raises(WorkloadError):
            get_model("alexnet-v9000")

    def test_get_model_rejects_bad_batch(self):
        with pytest.raises(WorkloadError):
            MODEL_REGISTRY["resnet50"].build(0)

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_every_model_builds_nonempty_layer_list(self, name):
        layers = get_model(name, batch_size=1)
        assert len(layers) > 0
        assert all(layer.macs > 0 for layer in layers)

    @pytest.mark.parametrize("name", ["resnet50", "gpt2", "dlrm"])
    def test_repeat_builds_share_layers_in_new_lists(self, name):
        spec = MODEL_REGISTRY[name]
        first, second = spec.build(3), spec.build(3)
        assert first is not second
        assert all(a is b for a, b in zip(first, second)) and len(first) == len(second)
        assert first == spec.builder(3)
        first.clear()
        assert spec.build(3) == second

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_batch_size_scales_compute(self, name):
        single = sum(layer.macs for layer in get_model(name, batch_size=1))
        double = sum(layer.macs for layer in get_model(name, batch_size=2))
        assert double == pytest.approx(2 * single, rel=1e-9)


class TestArchitectureShapes:
    def test_resnet50_has_expected_depth(self):
        layers = get_model("resnet50")
        # 1 stem + 3 * (3 + 4 + 6 + 3) bottleneck convs + 1 FC = 50 weighted layers.
        assert len(layers) == 50

    def test_resnet50_total_flops_order_of_magnitude(self):
        total_flops = sum(layer.flops for layer in get_model("resnet50"))
        # ResNet-50 is ~7.7 GFLOPs at 224x224 with this layer accounting.
        assert 3e9 < total_flops < 2e10

    def test_mobilenet_uses_depthwise_layers(self):
        layers = get_model("mobilenet_v2")
        assert any(layer.layer_type is LayerType.DEPTHWISE_CONV2D for layer in layers)

    def test_vgg16_has_three_fc_layers(self):
        layers = get_model("vgg16")
        fc_layers = [l for l in layers if l.layer_type is LayerType.FULLY_CONNECTED]
        assert len(fc_layers) == 3

    def test_language_models_are_fc_and_attention_dominated(self):
        for name in ("gpt2", "bert_base", "transformer_xl"):
            layers = get_model(name)
            assert all(
                layer.layer_type in (LayerType.FULLY_CONNECTED, LayerType.ATTENTION)
                for layer in layers
            ), name

    def test_gpt2_layer_count_matches_block_structure(self):
        layers = get_model("gpt2")
        # 12 blocks x 7 layers + final projection.
        assert len(layers) == 12 * 7 + 1

    def test_recommendation_models_are_small_compute(self):
        vision_flops = sum(l.flops for l in get_model("resnet50"))
        for name in ("dlrm", "ncf", "wide_and_deep"):
            recom_flops = sum(l.flops for l in get_model(name))
            assert recom_flops < vision_flops / 100, name

    def test_model_layer_names_are_prefixed_with_model(self):
        for name in ("resnet50", "gpt2", "dlrm"):
            layers = get_model(name)
            assert all(layer.name for layer in layers), name
