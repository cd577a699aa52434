"""Experiment configuration: defaults, JSON loading, and validation.

The ranges of the penalty and solver parameters belong to ``Penalty``,
``PMMConfig`` and ``ADMMConfig``: validation builds those objects and reports
their rejection under the JSON key. The experiment-only fields (task,
transform, sampling and generator sizes, paths) are checked here. Every value
is type-checked on load, so a bad value is rejected with its field name.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .penalties import ParameterError, Penalty
from .solver import ADMMConfig, PMMConfig

TASKS = ("complete", "classify")
TRANSFORMS = ("identity", "dct", "data")

# rho differs between the two tasks; everything else shares one default
TASK_RHO = {"complete": 10.0, "classify": 100.0}

# dataclass attribute or constructor argument -> JSON key (only where they differ)
_JSON_KEYS = {"lam": "lambda", "kind": "penalty"}


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field {fieldname!r}: {message}")
        self.fieldname = fieldname


def _built(cls, **kwargs):
    """``cls(**kwargs)``, with an out-of-range argument reported as a ConfigError."""
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(_JSON_KEYS.get(exc.name, exc.name), exc.reason) from exc


@dataclass
class ExperimentConfig:
    task: str = "complete"
    penalty: str = "mcp"
    lam: float = 0.5
    gamma: float = 2.7
    transform: str = "dct"
    beta: float = 1.0
    rho: float | None = None  # task default when None
    xi: float = PMMConfig.xi
    box_c: float | None = None  # auto from data (complete) / 10 (classify)
    eta: float = ADMMConfig.eta
    tau: float = ADMMConfig.tau
    max_outer: int = PMMConfig.max_outer
    tol_outer: float = PMMConfig.tol_outer
    max_inner: int = ADMMConfig.max_inner
    tol_inner: float = ADMMConfig.tol_inner
    sr: float = 0.4
    sigma: float = 0.01
    seed: int = 0
    n_train: int = 500
    n_test: int = 200
    rank: int = 2
    dims: tuple[int, int, int] = (30, 30, 10)
    pilot_max_outer: int | None = None
    paths: dict[str, str] = field(default_factory=dict)

    def resolved_rho(self) -> float:
        return TASK_RHO[self.task] if self.rho is None else self.rho

    def resolved_box_c(self) -> float | None:
        if self.box_c is None and self.task == "classify":
            return 10.0
        return self.box_c

    def build_penalty(self) -> Penalty:
        return _built(Penalty, kind=self.penalty, lam=self.lam, gamma=self.gamma)

    def build_admm(self) -> ADMMConfig:
        return _built(
            ADMMConfig,
            eta=self.eta, tau=self.tau, max_inner=self.max_inner, tol_inner=self.tol_inner,
        )

    def validate(self) -> "ExperimentConfig":
        if self.task not in TASKS:
            raise ConfigError("task", f"must be one of {TASKS}")
        self.build_penalty()
        if self.transform not in TRANSFORMS:
            raise ConfigError("transform", f"must be one of {TRANSFORMS}")
        # an unset box_c is derived from the data at run time; any positive
        # stand-in lets PMMConfig check the other outer-loop parameters
        _built(
            PMMConfig,
            rho=self.resolved_rho(),
            beta=self.beta,
            box_c=1.0 if self.box_c is None else self.box_c,
            xi=self.xi,
            max_outer=self.max_outer,
            tol_outer=self.tol_outer,
        )
        self.build_admm()
        if not 0 < self.sr <= 1:
            raise ConfigError("sr", "must lie in (0, 1]")
        if self.sigma < 0:
            raise ConfigError("sigma", "must be nonnegative")
        if self.n_train < 1:
            raise ConfigError("n_train", "must be at least 1")
        if self.n_test < 0:
            raise ConfigError("n_test", "must be nonnegative")
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ConfigError("dims", "must be three positive integers")
        if not 0 <= self.rank <= min(self.dims[0], self.dims[1]):
            raise ConfigError("rank", "must lie in [0, min(n1, n2)]")
        if self.pilot_max_outer is not None and self.pilot_max_outer < 0:
            raise ConfigError("pilot_max_outer", "must be nonnegative")
        allowed_paths = {
            "observed", "mask", "truth", "output", "results",
            "train_samples", "train_labels", "test_samples", "test_labels",
        }
        for key in self.paths:
            if key not in allowed_paths:
                raise ConfigError(f"paths.{key}", f"must be one of {sorted(allowed_paths)}")
        return self

    def echo(self) -> dict:
        """JSON-ready view with task defaults resolved (box_c may stay null)."""
        data = asdict(self)
        data["lambda"] = data.pop("lam")
        data["rho"] = self.resolved_rho()
        data["box_c"] = self.resolved_box_c()
        data["dims"] = list(self.dims)
        return data


# JSON key -> dataclass attribute (only where they differ)
_KEY_ALIASES = {"lambda": "lam"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# field annotation less any "| None" -> (test of a loaded value, what the value must be)
_TYPE_RULES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "tuple[int, int, int]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of integers"
    ),
    "dict[str, str]": (
        lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
        "an object of path strings",
    ),
}


def config_from_dict(raw: dict, **overrides) -> ExperimentConfig:
    annotations = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict = {}
    for key, value in raw.items():
        attr = _KEY_ALIASES.get(key, key)
        if attr not in annotations:
            raise ConfigError(key, "unknown field")
        values[attr] = value
    values.update(overrides)
    for attr, value in values.items():
        optional = annotations[attr].endswith(" | None")
        accepts, expected = _TYPE_RULES[annotations[attr].removesuffix(" | None")]
        if not (accepts(value) or optional and value is None):
            expected += " or null" if optional else ""
            raise ConfigError(_JSON_KEYS.get(attr, attr), f"must be {expected}")
    if "dims" in values:
        values["dims"] = tuple(values["dims"])
    cfg = ExperimentConfig(**values)
    return cfg.validate()


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a JSON config file; unspecified fields take the documented defaults."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    return config_from_dict(raw, **overrides)
