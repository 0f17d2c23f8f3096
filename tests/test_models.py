"""Tests for the model zoo: structure, scale fidelity, and executability."""

import pytest

from repro.core import count_layout_transforms, smartmem_optimize
from repro.ir import validate
from repro.models import (
    ALL_MODELS, EVAL_MODELS, SMOKE_CONFIGS, TABLE1_MODELS, build, model_names,
)
from repro.runtime import verify_equivalence


class TestCatalog:
    def test_eighteen_eval_models(self):
        assert len(EVAL_MODELS) == 18

    def test_table1_extras(self):
        assert set(TABLE1_MODELS) == {"ResNet50", "FST"}

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build("AlexNet")

    def test_model_names(self):
        assert len(model_names()) == 18
        assert len(model_names(eval_only=False)) == 20

    def test_type_metadata(self):
        types = {info.model_type for info in EVAL_MODELS.values()}
        assert types == {"Transformer", "ConvNet", "Hybrid"}
        assert EVAL_MODELS["Pythia"].attention == "Decoder"
        assert EVAL_MODELS["ViT"].attention == "Global"
        assert EVAL_MODELS["Swin"].attention == "Local"


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
class TestEveryModel:
    def test_builds_and_validates(self, name):
        g = build(name)
        validate(g)

    def test_deterministic_build(self, name):
        a, b = build(name), build(name)
        assert len(a.nodes) == len(b.nodes)
        assert a.num_params == b.num_params

    def test_has_transform_surface(self, name):
        """Every transformer/hybrid model must contain the explicit
        layout transformations the paper studies."""
        g = build(name)
        info = ALL_MODELS[name]
        transforms = count_layout_transforms(g, include_slice=False)
        if info.model_type in ("Transformer", "Hybrid"):
            assert transforms > 10, f"{name} has only {transforms} transforms"


# Published scale targets: (params_M, macs_G) from Tables 1 and 7, with
# generous tolerance: family-level fidelity, not checkpoint equality.
SCALE = {
    "AutoFormer": (31.2, 4.7), "BiFormer": (25.5, 4.5),
    "CrossFormer": (31, 5.0), "CSwin": (34.7, 6.9),
    "EfficientVit": (51, 5.2), "FlattenFormer": (37.3, 7.2),
    "SMTFormer": (22.5, 4.9), "Swin": (28.9, 4.6), "ViT": (102.8, 21),
    "Conformer": (10, 12), "SD-TextEncoder": (123, 6.7),
    "SD-UNet": (860, 90), "SD-VAEDecoder": (50, 312), "Pythia": (1121, 119),
    "ConvNext": (28.6, 4.5), "RegNet": (19.4, 3.2), "ResNext": (25, 4.3),
    "Yolo-V8": (3.2, 4.4), "ResNet50": (25.6, 4.1), "FST": (1.7, 162),
}


@pytest.mark.parametrize("name", sorted(SCALE))
def test_scale_matches_paper(name):
    params_m, macs_g = SCALE[name]
    g = build(name)
    assert g.num_params / 1e6 == pytest.approx(params_m, rel=0.45), \
        f"{name} params {g.num_params / 1e6:.1f}M vs paper {params_m}M"
    assert g.total_macs() / 1e9 == pytest.approx(macs_g, rel=0.45), \
        f"{name} MACs {g.total_macs() / 1e9:.1f}G vs paper {macs_g}G"


class TestBatchScaling:
    def test_batch_scales_macs(self):
        g1 = build("Swin", batch=1)
        g2 = build("Swin", batch=2)
        assert g2.total_macs() == pytest.approx(2 * g1.total_macs(), rel=0.01)

    def test_batch_keeps_params(self):
        g1 = build("ViT", batch=1)
        g4 = build("ViT", batch=4)
        assert g1.num_params == g4.num_params


# Downscaled configurations live in the registry (SMOKE_CONFIGS) so the
# session layer and examples share them.
SMALL_CONFIGS = SMOKE_CONFIGS


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_small_model_optimization_preserves_semantics(name):
    """The headline correctness property: the full SmartMem pipeline is a
    semantics-preserving rewrite on real model families."""
    g = build(name, **SMALL_CONFIGS[name])
    validate(g)
    result = smartmem_optimize(g)
    validate(result.graph)
    assert verify_equivalence(g, result.graph, seeds=(0,)).passed
    assert result.operator_count < len(g.nodes)
