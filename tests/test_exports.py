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


def test_the_layer_modules_declare_their_exports():
    layers = {"graph", "sampling", "prompts", "scoring", "tournament", "datagen", "evaluation"}
    assert {f"lpnl.{name}" for name in layers} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)
