import json

import pytest

from ttlearn.config import ConfigError, config_from_dict, load_config
from ttlearn.penalties import Penalty


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_empty_config_gets_full_default_set(tmp_path):
    cfg = load_config(write_config(tmp_path, {}), task="complete")
    assert cfg.penalty == "mcp"
    assert cfg.gamma == 2.7
    assert cfg.resolved_rho() == 10.0
    assert cfg.eta == 10.0
    assert cfg.tau == 1.618
    assert cfg.max_outer == 100 and cfg.tol_outer == 5e-4
    assert cfg.max_inner == 100 and cfg.tol_inner == 3e-3
    assert cfg.resolved_box_c() is None  # derived from data at run time


def test_classify_task_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"task": "classify"}))
    assert cfg.resolved_rho() == 100.0
    assert cfg.resolved_box_c() == 10.0


def test_lambda_alias(tmp_path):
    cfg = load_config(write_config(tmp_path, {"lambda": 0.7}), task="complete")
    assert cfg.lam == 0.7
    assert cfg.echo()["lambda"] == 0.7


def test_tau_above_golden_limit_rejected(tmp_path):
    with pytest.raises(ConfigError, match="tau"):
        load_config(write_config(tmp_path, {"tau": 2.0}), task="complete")


def test_xi_out_of_range_rejected(tmp_path):
    with pytest.raises(ConfigError, match="xi"):
        load_config(write_config(tmp_path, {"xi": 0.7}), task="complete")


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write_config(tmp_path, {"mystery": 1}), task="complete")


def test_error_message_carries_field_name():
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"task": "complete", "sr": 1.5})
    assert excinfo.value.fieldname == "sr"


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("task", "segment"),
        ("penalty", "ridge"),
        ("lambda", 0.0),
        ("gamma", -1.0),
        ("transform", "fourier"),
        ("beta", -0.5),
        ("rho", 0.0),
        ("eta", 0.0),
        ("max_inner", 0),
        ("tol_outer", 0.0),
        ("sigma", -1.0),
        ("sr", 0.0),
        ("n_train", 0),
        ("rank", -1),
        ("dims", [4, 4]),
        ("box_c", 0.0),
        ("max_outer", -1),
        ("tol_inner", 0.0),
    ],
)
def test_range_violations(field, value, tmp_path):
    overrides = {} if field == "task" else {"task": "complete"}
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_config(tmp_path, {field: value}), **overrides)
    assert excinfo.value.fieldname == field


def test_delegated_range_messages():
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"task": "complete", "tau": 2.0})
    assert str(excinfo.value) == "config field 'tau': must lie in (0, 1.618033989)"
    with pytest.raises(ValueError) as excinfo:
        Penalty("mcp", lam=0.0)
    assert str(excinfo.value) == "lam must be positive"


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"dims": 5}, "dims"),
        ({"dims": [4, "a", 2]}, "dims"),
        ({"dims": [4.0, 4.0, 2.0]}, "dims"),
        ({"max_outer": 2.5}, "max_outer"),
        ({"max_inner": True}, "max_inner"),
        ({"lambda": "abc"}, "lambda"),
        ({"beta": False}, "beta"),
        ({"tol_inner": None}, "tol_inner"),
        ({"seed": "x"}, "seed"),
        ({"penalty": 5}, "penalty"),
        ({"paths": ["observed"]}, "paths"),
        ({"paths": {"observed": 3}}, "paths"),
    ],
)
def test_mistyped_values_name_their_field(payload, field, tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_config(tmp_path, payload), task="complete")
    assert excinfo.value.fieldname == field


def test_integers_and_nulls_accepted_where_typed():
    cfg = config_from_dict(
        {"task": "complete", "lambda": 1, "rho": None, "box_c": None, "pilot_max_outer": None}
    )
    assert cfg.lam == 1 and cfg.rho is None and cfg.box_c is None
    assert cfg.pilot_max_outer is None


def test_scad_gamma_rule():
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict({"task": "complete", "penalty": "scad", "gamma": 1.0})
    cfg = config_from_dict({"task": "complete", "penalty": "scad", "gamma": 3.7})
    assert cfg.gamma == 3.7


def test_echo_is_json_ready(tmp_path):
    cfg = load_config(write_config(tmp_path, {"seed": 3}), task="complete")
    echoed = cfg.echo()
    json.dumps(echoed)
    assert echoed["seed"] == 3
    assert echoed["task"] == "complete"
    assert "lam" not in echoed
