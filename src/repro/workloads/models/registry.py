"""Registry mapping model names to builders and task families."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.exceptions import WorkloadError
from repro.workloads.layers import LayerShape
from repro.workloads.models import language, recommendation, vision


class ModelFamily(enum.Enum):
    """Task family a model belongs to (Section II-A of the paper)."""

    VISION = "vision"
    LANGUAGE = "language"
    RECOMMENDATION = "recommendation"


#: Signature of a model builder: ``builder(batch_size) -> list of layers``.
ModelBuilder = Callable[[int], List[LayerShape]]


@dataclass(frozen=True)
class ModelSpec:
    """A registered model: its name, family, and layer-shape builder."""

    name: str
    family: ModelFamily
    builder: ModelBuilder
    description: str = ""

    def build(self, batch_size: int = 1) -> List[LayerShape]:
        """Return the layer shapes for the given mini-batch size.

        Each (spec, batch size) is built once per process: layer shapes are
        frozen, so every call returns a new list of the same shared layers.
        """
        if batch_size <= 0:
            raise WorkloadError(f"batch_size must be positive, got {batch_size}")
        key = (self, batch_size)
        layers = _BUILT_MODELS.get(key)
        if layers is None:
            layers = _BUILT_MODELS[key] = tuple(self.builder(batch_size))
        return list(layers)


#: ``(spec, batch size) -> layers`` of every model built in this process;
#: bounded by the model zoo times the batch sizes in use.  Two threads that
#: miss on one key at once only build the same layers twice.
_BUILT_MODELS: Dict[Tuple[ModelSpec, int], Tuple[LayerShape, ...]] = {}


def _spec(name: str, family: ModelFamily, builder: ModelBuilder, description: str) -> ModelSpec:
    return ModelSpec(name=name, family=family, builder=builder, description=description)


MODEL_REGISTRY: Dict[str, ModelSpec] = {
    spec.name: spec
    for spec in [
        # Vision
        _spec("resnet50", ModelFamily.VISION, vision.resnet50, "ResNet-50 image classifier"),
        _spec("mobilenet_v2", ModelFamily.VISION, vision.mobilenet_v2, "MobileNetV2 mobile classifier"),
        _spec("shufflenet", ModelFamily.VISION, vision.shufflenet, "ShuffleNet mobile classifier"),
        _spec("vgg16", ModelFamily.VISION, vision.vgg16, "VGG-16 image classifier"),
        _spec("squeezenet", ModelFamily.VISION, vision.squeezenet, "SqueezeNet compact classifier"),
        _spec("inception_v4", ModelFamily.VISION, vision.inception_v4, "Inception-v4-style classifier"),
        _spec("mnasnet", ModelFamily.VISION, vision.mnasnet, "MnasNet-A1 mobile classifier"),
        # Language
        _spec("gpt2", ModelFamily.LANGUAGE, language.gpt2, "GPT-2 small decoder"),
        _spec("mobilebert", ModelFamily.LANGUAGE, language.mobilebert, "MobileBERT encoder"),
        _spec("transformer_xl", ModelFamily.LANGUAGE, language.transformer_xl, "Transformer-XL base"),
        _spec("bert_base", ModelFamily.LANGUAGE, language.bert_base, "BERT base encoder"),
        _spec("xlnet", ModelFamily.LANGUAGE, language.xlnet, "XLNet base with two-stream attention"),
        _spec("t5_small", ModelFamily.LANGUAGE, language.t5_small, "T5-small encoder/decoder"),
        # Recommendation
        _spec("dlrm", ModelFamily.RECOMMENDATION, recommendation.dlrm, "DLRM reference model"),
        _spec("wide_and_deep", ModelFamily.RECOMMENDATION, recommendation.wide_and_deep, "Wide & Deep"),
        _spec("ncf", ModelFamily.RECOMMENDATION, recommendation.ncf, "Neural Collaborative Filtering"),
        _spec("din", ModelFamily.RECOMMENDATION, recommendation.din, "Deep Interest Network"),
        _spec("dien", ModelFamily.RECOMMENDATION, recommendation.dien, "Deep Interest Evolution Network"),
    ]
}


def get_model(name: str, batch_size: int = 1) -> List[LayerShape]:
    """Return the layer shapes of the registered model *name*."""
    try:
        spec = MODEL_REGISTRY[name]
    except KeyError as exc:
        available = ", ".join(sorted(MODEL_REGISTRY))
        raise WorkloadError(f"unknown model {name!r}; available models: {available}") from exc
    return spec.build(batch_size)


def list_models(family: ModelFamily | None = None) -> List[str]:
    """List registered model names, optionally restricted to one family."""
    if family is None:
        return sorted(MODEL_REGISTRY)
    return sorted(name for name, spec in MODEL_REGISTRY.items() if spec.family is family)


def models_for_family(family: ModelFamily) -> List[ModelSpec]:
    """Return the full :class:`ModelSpec` objects for one task family."""
    return [spec for spec in MODEL_REGISTRY.values() if spec.family is family]
