"""Experiment configuration: defaults, JSON loading and derived quantities.

The default values mirror the reference deployment: 100 peers with uniform
stake 10, privacy budget epsilon=2 and delta=1e-5, 2 noisers, 3 verifiers,
3 aggregators, a Multi-KRUM sample of 70% of the peers (R=70 at N=100, so
u = R/2 = 35 updates per block and an adversary bound f=33), a linear +5
stake reward, and ``sgd.TrainConfig``'s own training defaults.  Config
files are JSON with the same field names.  A run's ``metadata.json``
sidecar is not itself a config, but its ``config`` object is one: saved as
its own file, it replays the run exactly.  A spec refuses, when it is made,
what needs the node count; its ``ledger.ProtocolConfig`` refuses the rest,
renamed to the JSON key (``CONFIG_KEYS``), before a run makes a directory.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter

from .attacks import AdversaryConfig
from .encoding import U32, U64, require, require_int
from .krum import MIN_SAMPLE, krum_sample_size, max_tolerable_f, updates_per_block
from .ledger import ProtocolConfig
from .sgd import TrainConfig


# each ProtocolConfig field and the spec key that sets it
CONFIG_KEYS = {
    "backend_name": "backend", "model_family": "model_family", "n_features": "dataset.features",
    "n_classes": "dataset.classes", "total_iterations": "total_iterations", "epsilon": "privacy_budget_epsilon",
    "delta": "delta", "num_noisers": "number_of_noisers", "num_verifiers": "number_of_verifiers",
    "num_aggregators": "number_of_aggregators", "collect_fraction": "collect_fraction",
    "stake_reward": "stake_reward", "train": "train",
}


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "synthetic-blobs"
    features: int = 10
    classes: int = 2
    class_weights: tuple = (0.75, 0.25)
    separation: float = 6.0
    noise_std: float = 1.0
    shard_size: int = 300
    validation_size: int = 2000
    params: dict = field(default_factory=dict)  # extra kind-specific params

    def __post_init__(self):  # refused by its JSON key before any use; the config checks features and classes
        for name in ("shard_size", "validation_size"):
            require_int(f"dataset.{name}", getattr(self, name))
        for name, kinds, rule in (("kind", str, "be a string"), ("separation", (int, float), "be a number"),
                                  ("noise_std", (int, float), "be a number"), ("params", dict, "be an object")):
            require(f"dataset.{name}", repr(getattr(self, name)), isinstance(getattr(self, name), kinds), rule)
        weights = self.class_weights  # None draws the classes uniformly
        require("dataset.class_weights", repr(weights), weights is None or (
            isinstance(weights, tuple) and all(isinstance(w, (int, float)) for w in weights)), "be a list of numbers")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "baseline"
    number_of_nodes: int = 100
    total_iterations: int = 100
    privacy_budget_epsilon: float = 2.0
    delta: float = 1e-5
    number_of_noisers: int = 2
    number_of_verifiers: int = 3
    number_of_aggregators: int = 3
    collect_fraction: float = 0.70
    initial_stake: int = 10
    stake_reward: int = 5
    model_family: str = "logreg"
    backend: str = "exponent"
    seed: int = 0
    churn_per_minute: float = 0.0
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    # grid lists for the sweep experiments, e.g. {"collect_fraction": [0.5, 0.9],
    # "epsilon": [0.5, 2.0], "seeds": 3, "noisers": [3, 5, 10],
    # "stake_fractions": [0.1, 0.3, 0.5], "trials": 10000}
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, least, most in (("number_of_nodes", 1, U32), ("initial_stake", 1, U64), ("seed", 0, U64)):
            require_int(key, getattr(self, key), least, most)  # genesis writes peer ids as u32, stake as u64
        churn = self.churn_per_minute  # a number before any comparison
        require("churn_per_minute", repr(churn), isinstance(churn, (int, float)), "be a number")
        require("churn_per_minute", churn, churn >= 0, "be non-negative")
        require("churn_per_minute", churn, math.isfinite(churn), "be finite")
        n = self.number_of_nodes
        # a peer draws its noisers from the other peers, each committee from all
        for key, most in (("number_of_noisers", n - 1), ("number_of_verifiers", n), ("number_of_aggregators", n)):
            count = getattr(self, key)
            if type(count) is int and count <= U32:  # the config refuses any other count
                require(key, count, count <= most, f"be at most {most} with {n} nodes")
        try:
            self.protocol_config()
        except ValueError as exc:  # named by its JSON key
            name, _, rest = str(exc).partition(" ")
            raise ValueError(f"{CONFIG_KEYS.get(name, name)} {rest}") from None
        # the committees may be disjoint, so only this many updaters are sure to reach a verifier's quorum
        v, a = self.number_of_verifiers, self.number_of_aggregators
        require("number_of_nodes - number_of_verifiers - number_of_aggregators", f"{n} - {v} - {a} = {n - v - a}",
                n - v - a >= MIN_SAMPLE, f"be at least {MIN_SAMPLE}")

    # -- derived, reported in metadata ----------------------------------------

    @property
    def multikrum_sample_R(self) -> int:
        return krum_sample_size(self.collect_fraction, self.number_of_nodes)

    @property
    def updates_per_block_u(self) -> int:
        return updates_per_block(self.multikrum_sample_R)

    @property
    def adversary_upper_bound_f(self) -> int:
        return max_tolerable_f(self.multikrum_sample_R)

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(**{field: attrgetter(key)(self) for field, key in CONFIG_KEYS.items()})

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["derived"] = {
            "multikrum_sample_R": self.multikrum_sample_R,
            "updates_per_block_u": self.updates_per_block_u,
            "adversary_upper_bound_f": self.adversary_upper_bound_f,
        }
        return out


def spec_from_dict(data: dict) -> ExperimentSpec:
    data = dict(data)
    data.pop("derived", None)
    for key, kind in (("train", TrainConfig), ("dataset", DatasetSpec), ("adversary", AdversaryConfig)):
        if isinstance(data.get(key), dict):  # a JSON list reads back as the tuple it was written from
            data[key] = kind(**{k: tuple(v) if isinstance(v, list) else v for k, v in data[key].items()})
    known = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentSpec(**data)


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    try:
        return spec_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
