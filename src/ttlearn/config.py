"""Experiment configuration: defaults, JSON loading, and validation.

A config validates on construction. The ranges and defaults of the penalty
and solver parameters belong to ``Penalty``, ``PMMConfig`` and ``ADMMConfig``,
whose rejection is reported under the JSON key; the inner ADMM's weight, dual
step and iteration cap, the admissible inexactness xi = 0.1 and the outer stop
tolerance are fixed by ``solver``, and the task defaults and fixed transforms
belong to ``tasks``. Construction also resolves the task defaults, so a
config holds the ``rho`` and, for classification, the ``box_c`` its solve runs
with; a completion's unset ``box_c`` stays ``None`` for ``run_completion`` to
derive from the data. The experiment-only fields (task, transform, sampling and
generator sizes, paths) are checked here. Every value is type-checked on
load, so a bad value is rejected with its field name.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .penalties import ParameterError, Penalty
from .solver import ADMMConfig, PMMConfig
from .tasks import CLASSIFY_BOX_C, FIXED_TRANSFORMS, TASK_RHO

TASKS = ("complete", "classify")
TRANSFORMS = (*FIXED_TRANSFORMS, "data")

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


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "complete"
    penalty: str = "mcp"
    lam: float = 0.5
    gamma: float = 2.7
    transform: str = "dct"
    beta: float = 1.0
    rho: float | None = None  # None becomes the task's TASK_RHO on construction
    box_c: float | None = None  # None: CLASSIFY_BOX_C (classify); run_completion's data box
    max_outer: int = PMMConfig.max_outer
    tol_inner: float = ADMMConfig.tol_inner
    sr: float = 0.4
    sigma: float = 0.01
    seed: int = 0
    n_train: int = 500
    n_test: int = 200
    rank: int = 2
    dims: tuple[int, int, int] = (30, 30, 10)
    paths: dict[str, str] = field(default_factory=dict)

    def build_penalty(self) -> Penalty:
        return _built(Penalty, kind=self.penalty, lam=self.lam, gamma=self.gamma)

    def build_admm(self) -> ADMMConfig:
        return _built(ADMMConfig, tol_inner=self.tol_inner)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError("task", f"must be one of {TASKS}")
        if self.rho is None:
            object.__setattr__(self, "rho", TASK_RHO[self.task])
        if self.box_c is None and self.task == "classify":
            object.__setattr__(self, "box_c", CLASSIFY_BOX_C)
        pen = self.build_penalty()
        if self.transform not in TRANSFORMS:
            raise ConfigError("transform", f"must be one of {TRANSFORMS}")
        # an unset box_c is derived from the data at run time; any positive
        # stand-in lets PMMConfig check the other outer-loop parameters
        _built(
            PMMConfig,
            rho=self.rho,
            beta=self.beta,
            box_c=1.0 if self.box_c is None else self.box_c,
            max_outer=self.max_outer,
        )
        # the solver's nuclear-norm weight; neither Penalty nor PMMConfig sees the product
        if not math.isfinite(self.beta * pen.slope):
            raise ConfigError("beta", "must keep beta*lambda*k0 finite")
        self.build_admm()
        if not 0 < self.sr <= 1:
            raise ConfigError("sr", "must lie in (0, 1]")
        if not 0 <= self.sigma < float("inf"):
            raise ConfigError("sigma", "must be finite and nonnegative")
        if self.n_train < 1:
            raise ConfigError("n_train", "must be at least 1")
        if self.n_test < 0:
            raise ConfigError("n_test", "must be nonnegative")
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ConfigError("dims", "must be three positive integers")
        if not 0 <= self.rank <= min(self.dims[0], self.dims[1]):
            raise ConfigError("rank", "must lie in [0, min(n1, n2)]")
        allowed_paths = {
            "observed", "mask", "truth", "output", "results",
            "train_samples", "train_labels", "test_samples", "test_labels",
        }
        for key in self.paths:
            if key not in allowed_paths:
                raise ConfigError(f"paths.{key}", f"must be one of {sorted(allowed_paths)}")

    def echo(self) -> dict:
        """JSON-ready view; a completion's box_c is null when the data will set it."""
        data = asdict(self)
        data["lambda"] = data.pop("lam")
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
    return ExperimentConfig(**values)


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
