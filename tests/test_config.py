import dataclasses
import inspect
import json

import pytest

from ttlearn import tasks
from ttlearn.config import ConfigError, ExperimentConfig, config_from_dict, load_config
from ttlearn.penalties import Penalty


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_empty_config_gets_full_default_set(tmp_path):
    cfg = load_config(write_config(tmp_path, {}), task="complete")
    assert cfg.penalty == "mcp"
    assert cfg.gamma == 2.7
    assert cfg.rho == 10.0
    assert cfg.max_outer == 100
    assert cfg.tol_inner == 3e-3
    assert cfg.box_c is None  # derived from data at run time


def test_classify_task_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"task": "classify"}))
    assert cfg.rho == 100.0
    assert cfg.box_c == 10.0


def test_task_defaults_are_resolved_on_construction():
    cfg = ExperimentConfig(task="classify")
    assert (cfg.rho, cfg.box_c) == (100.0, 10.0)
    # replace re-runs __post_init__ on the resolved values, which it keeps
    replaced = dataclasses.replace(cfg, lam=0.3)
    assert (replaced.rho, replaced.box_c) == (100.0, 10.0)


def test_lambda_alias(tmp_path):
    cfg = load_config(write_config(tmp_path, {"lambda": 0.7}), task="complete")
    assert cfg.lam == 0.7
    assert cfg.echo()["lambda"] == 0.7


@pytest.mark.parametrize(
    "field", ["eta", "tau", "xi", "tol_outer", "pilot_max_outer", "max_inner"]
)
def test_removed_admm_fields_are_unknown(field, tmp_path):
    # solver parameters with one value in use are constants or library defaults:
    # the inner ADMM's weight, dual step and iteration cap, the subproblems'
    # inexactness xi and the outer stop tolerance; the pilot solve runs under the
    # main solve's settings. None of them is a config field
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_config(tmp_path, {field: 2.0}), task="complete")
    assert excinfo.value.fieldname == field
    assert str(excinfo.value) == f"config field {field!r}: unknown field"


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


def test_top_level_must_be_an_object(tmp_path):
    with pytest.raises(ConfigError, match="top level must be a JSON object") as excinfo:
        load_config(write_config(tmp_path, [{"lambda": 1.0}]))
    assert excinfo.value.fieldname == "<file>"


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
        ("n_test", -1),
        ("max_inner", 0),  # no longer a field: rejected at any value
        ("box_c", 0.0),
        ("sigma", -1.0),
        ("sr", 0.0),
        ("n_train", 0),
        ("rank", -1),
        ("dims", [4, 4]),
        ("max_outer", -1),
        ("tol_inner", 0.0),
        ("tol_outer", 0.0),  # no longer a field: rejected at any value
    ],
)
def test_range_violations(field, value, tmp_path):
    overrides = {} if field == "task" else {"task": "complete"}
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_config(tmp_path, {field: value}), **overrides)
    assert excinfo.value.fieldname == field


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
@pytest.mark.parametrize("field", ["lambda", "beta", "rho"])
def test_non_finite_solver_parameters_rejected(field, literal, tmp_path):
    # json.load accepts both literals; NaN already fails the positivity checks
    path = tmp_path / "config.json"
    path.write_text(f'{{"task": "complete", "{field}": {literal}}}')
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    reason = "must be positive" if literal == "NaN" and field != "beta" else "must be finite"
    assert str(excinfo.value) == f"config field {field!r}: {reason}"


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
@pytest.mark.parametrize(
    "field,reason", [("gamma", "must be finite"), ("sigma", "must be finite and nonnegative")]
)
def test_non_finite_gamma_and_sigma_rejected(field, reason, literal, tmp_path):
    # the convex penalty ignores gamma, but a non-finite value is still rejected
    path = tmp_path / "config.json"
    path.write_text(f'{{"task": "complete", "penalty": "convex", "{field}": {literal}}}')
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"config field {field!r}: {reason}"


@pytest.mark.parametrize(
    "payload",
    [
        {"lambda": 1e154, "beta": 1e200},
        {"penalty": "convex", "lambda": 1e300, "beta": 1e10},
        {"penalty": "log", "gamma": 1e-10, "lambda": 1e150, "beta": 1e160},  # slope lam/gamma
    ],
)
def test_overflowing_nuclear_norm_weight_rejected(payload):
    # each factor is finite and in range; the solver's weight beta*lam*k0 is not
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"task": "complete", **payload})
    assert str(excinfo.value) == "config field 'beta': must keep beta*lambda*k0 finite"
    finite = {**payload, "beta": 1.0}
    assert config_from_dict({"task": "complete", **finite}).beta == 1.0


def test_delegated_range_messages():
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"task": "complete", "rho": 1e-320})
    assert str(excinfo.value) == "config field 'rho': must keep 1/rho finite"
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
        ({"max_inner": True}, "max_inner"),  # no longer a field: rejected at any value
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
    cfg = config_from_dict({"task": "complete", "lambda": 1, "rho": None, "box_c": None})
    # a null rho takes the task default; a completion's null box_c is derived from the data
    assert cfg.lam == 1 and cfg.rho == 10.0 and cfg.box_c is None


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


def test_replace_validates_like_construction():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError) as excinfo:
        dataclasses.replace(cfg, lam=0.0)
    assert excinfo.value.fieldname == "lambda"
    assert dataclasses.replace(cfg, lam=0.3).lam == 0.3


@pytest.mark.parametrize(
    "task,driver", [("complete", tasks.run_completion), ("classify", tasks.run_classification)]
)
def test_echoed_defaults_are_the_drivers_defaults(task, driver):
    echoed = config_from_dict({}, task=task).echo()
    params = inspect.signature(driver).parameters
    for name in ("rho", "box_c", "max_outer"):
        assert echoed[name] == params[name].default, name
