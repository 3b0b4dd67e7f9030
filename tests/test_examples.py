"""The Figure 8 example is a check: it exits nonzero when the runtime's
result strays from the numpy reference or the replicated NDA FSMs diverge."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "nda_api_average_gradient.py"


@pytest.fixture
def example():
    spec = importlib.util.spec_from_file_location("nda_api_average_gradient", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure8_example_passes_its_numpy_check(example, capsys):
    assert example.main() == 0
    out = capsys.readouterr().out
    assert "operations submitted to the NDAs   : 69" in out
    assert "macro operation AXPYs (async)      : 64" in out
    assert "replicated FSMs in sync            : True" in out


@pytest.mark.parametrize("fault", ["error_above_tolerance", "fsm_out_of_sync"])
def test_figure8_example_fails_its_check(example, monkeypatch, fault):
    if fault == "error_above_tolerance":
        monkeypatch.setattr(example, "MAX_ERROR", 0.0)
    else:
        from repro.core.system import ChopimSystem
        monkeypatch.setattr(ChopimSystem, "verify_fsm_sync", lambda self: False)
    assert example.main() == 1
