"""The public surface: exported names and the one lookup of a kind."""

import importlib

import pytest

from lerchzeta import DomainError, afe, choose_split, funceq

S = complex(0.5, 100.0)
SPLIT = choose_split(100.0)

KIND_TAKERS = {
    "split_kind": afe.split_kind,
    "check_pair": lambda k: afe.check_pair(k, 0.5, 0.5),
    "error_envelope": lambda k: afe.error_envelope(k, S, SPLIT),
    "afe_eval": lambda k: afe.afe_eval(k, S, 0.5, 0.5, SPLIT),
    "envelope_scan": lambda k: list(afe.envelope_scan(k, [])),
    "envelope_fit": lambda k: afe.envelope_fit(k, []),
    "scan_grid": lambda k: list(afe.scan_grid(k, [100.0],
                                              lambda t: [("b", SPLIT)])),
    "default_calibration_grid": afe.default_calibration_grid,
    "get_cfit": afe.get_cfit,
    "fe_residual_scan": lambda k: funceq.fe_residual_scan(k, []),
    "default_fe_grid": funceq.default_fe_grid,
}


@pytest.mark.parametrize("call", KIND_TAKERS.values(), ids=KIND_TAKERS)
def test_every_kind_taking_function_refuses_an_unknown_kind(call):
    with pytest.raises(DomainError, match="unknown split-sum kind 'weird'"):
        call("weird")


# The benchmark's tracer calls getattr on every name in these lists, so a
# stale entry would fail every traced run.
@pytest.mark.parametrize("module", [
    "lerchzeta", "lerchzeta.params", "lerchzeta.gammafns", "lerchzeta.oracles",
    "lerchzeta.afe", "lerchzeta.meansquare", "lerchzeta.funceq",
    "lerchzeta.cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
