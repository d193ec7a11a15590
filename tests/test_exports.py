import importlib
import pkgutil

import pytest

import lpnl

# every lpnl module that declares its public names; __main__ runs the CLI on import
EXPORTING = [
    info.name
    for info in pkgutil.iter_modules(lpnl.__path__, "lpnl.")
    if info.name != "lpnl.__main__" and hasattr(importlib.import_module(info.name), "__all__")
]


LAYERS = ("graph", "sampling", "prompts", "scoring", "tournament", "datagen", "evaluation")


def test_the_layer_modules_declare_their_exports():
    assert {f"lpnl.{name}" for name in LAYERS} <= set(EXPORTING)


def test_lpnl_exports_exactly_what_its_layers_export():
    layer_names = [
        name for layer in LAYERS for name in importlib.import_module(f"lpnl.{layer}").__all__
    ]
    assert lpnl.__all__ == layer_names
    assert len(set(layer_names)) == len(layer_names)
    from lpnl import anchors_for, node_label

    assert node_label is lpnl.prompts.node_label
    assert anchors_for is lpnl.sampling.anchors_for


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)
