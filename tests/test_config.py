"""Strict JSON configuration parsing: schema, defaults, and rejection."""
import json
import re

import pytest

from frontwave import (
    ArrheniusKinetics,
    ConfigurationError,
    ConstantKinetics,
    PiecewiseConstantRate,
    SmoothRate,
    TabulatedKinetics,
    TruncatedKinetics,
    config_from_dict,
    load_config,
)

MINIMAL = {
    "kinetics": {"type": "arrhenius", "prefactor": 1.0, "activation": 1.0},
    "rate": {"type": "constant", "value": 1.0},
}


def full_document():
    return {
        "kinetics": {"type": "arrhenius", "prefactor": 1.0, "activation": 2.0},
        "rate": {"type": "piecewise", "edges": [0.0, 0.5], "values": [0.5, 1.5]},
        "grid": {"ny": 32, "nx": 1024, "depth": 60.0},
        "solver": {"outer_tol": 1e-7},
    }


def test_minimal_document_uses_defaults():
    config = config_from_dict(MINIMAL)
    assert isinstance(config.kinetics, ArrheniusKinetics)
    assert isinstance(config.rate, SmoothRate)
    assert config.ny == 64
    assert config.nx is None
    assert config.depth is None
    assert config.outer_tol == 1e-6
    assert config.run_diagnostics is True


def test_full_document_round_trip():
    config = config_from_dict(full_document())
    assert isinstance(config.rate, PiecewiseConstantRate)
    assert config.ny == 32
    assert config.nx == 1024
    assert config.depth == 60.0
    assert config.outer_tol == 1e-7
    # no section turns the checks off
    assert config.run_diagnostics is True


def test_auto_and_null_grid_entries():
    doc = dict(MINIMAL, grid={"ny": 16, "nx": "auto", "depth": None})
    config = config_from_dict(doc)
    assert config.ny == 16
    assert config.nx is None
    assert config.depth is None


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, extra={}))
    with pytest.raises(ConfigurationError):
        config_from_dict(
            dict(MINIMAL, kinetics={"type": "arrhenius", "prefactor": 1.0,
                                    "activation": 1.0, "typo": 2})
        )
    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, grid={"nz": 4}))
    # includes the keys of earlier releases that tuned the continuation
    for key in ("omega", "damping", "front_tol", "initial_truncation",
                "max_outer_iter", "max_stages"):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict(dict(MINIMAL, solver={key: 1}))
    # and the section of earlier releases that could turn the checks off
    for section in ({"enabled": False}, {"enabled": True}, {}):
        message = "config: unknown field(s) ['diagnostics']"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(dict(MINIMAL, diagnostics=section))


def test_missing_required_sections_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"kinetics": MINIMAL["kinetics"]})
    with pytest.raises(ConfigurationError):
        config_from_dict({"rate": MINIMAL["rate"]})
    with pytest.raises(ConfigurationError):
        config_from_dict(
            dict(MINIMAL, kinetics={"type": "arrhenius", "prefactor": 1.0})
        )


def test_type_errors_are_configuration_errors():
    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, grid={"ny": 16.5}))
    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, grid={"ny": True}))
    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, solver={"outer_tol": "strong"}))
    for override, message in [
        ({"grid": {"depth": True}}, "grid.depth must be a number"),
        ({"grid": 5}, "grid must be an object"),
        ({"solver": [1e-6]}, "solver must be an object"),
        ({"kinetics": [1.0]}, "kinetics must be an object with a 'type'"),
        ({"rate": {"value": 1.0}}, "rate must be an object with a 'type'"),
        ({"kinetics": {"type": "tabulated", "points": {"0": 0}}},
         "kinetics.points must be a list"),
    ]:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(dict(MINIMAL, **override))


def test_model_validation_wrapped_with_section_name():
    bad = dict(MINIMAL, kinetics={"type": "arrhenius", "prefactor": -1.0,
                                  "activation": 1.0})
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_dict(bad)
    assert "kinetics" in str(excinfo.value)

    bad = dict(MINIMAL, rate={"type": "smooth", "mean": 1.0, "cosine": [2.0]})
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_dict(bad)
    assert "rate" in str(excinfo.value)


def test_kinetics_variants_parse():
    constant = config_from_dict(
        dict(MINIMAL, kinetics={"type": "constant", "value": 2.0})
    )
    assert isinstance(constant.kinetics, ConstantKinetics)

    tabulated = config_from_dict(
        dict(MINIMAL, kinetics={"type": "tabulated",
                                "points": [[0.0, 0.0], [1.0, 2.0]]})
    )
    assert isinstance(tabulated.kinetics, TabulatedKinetics)

    truncated = config_from_dict(
        dict(MINIMAL, kinetics={"type": "truncated", "n": 4,
                                "base": {"type": "arrhenius", "prefactor": 1.0,
                                         "activation": 1.0}})
    )
    assert isinstance(truncated.kinetics, TruncatedKinetics)
    assert truncated.kinetics.floor == 0.25

    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, kinetics={"type": "mystery"}))


def test_rate_variants_parse():
    smooth = config_from_dict(
        dict(MINIMAL, rate={"type": "smooth", "mean": 1.0,
                            "cosine": [0.2], "sine": [0.1]})
    )
    assert isinstance(smooth.rate, SmoothRate)
    assert smooth.rate.cosine == (0.2,)

    with pytest.raises(ConfigurationError):
        config_from_dict(dict(MINIMAL, rate={"type": "mystery"}))


def test_load_config_reads_and_echoes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(full_document()))
    config, raw = load_config(path)
    assert raw == full_document()
    assert config.ny == 32


def test_load_config_rejects_bad_documents(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config(path)

    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigurationError):
        load_config(path)

    # JSON parses the bare word NaN, so the table check must catch it
    path.write_text(
        '{"kinetics": {"type": "tabulated", "points": [[0, 0], [0.5, NaN], [1, 1]]},'
        ' "rate": {"type": "constant", "value": 1.0}}'
    )
    with pytest.raises(ConfigurationError, match="table entries must be finite"):
        load_config(path)
