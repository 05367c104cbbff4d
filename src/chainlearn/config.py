"""Experiment configuration: defaults, JSON loading and derived quantities.

The default values mirror the reference deployment: 100 peers with uniform
stake 10, privacy budget epsilon=2 and delta=1e-5, 2 noisers, 3 verifiers,
3 aggregators, a Multi-KRUM sample of 70% of the peers (R=70 at N=100, so
u = R/2 = 35 updates per block and an adversary bound f=33), a linear +5
stake reward, and ``sgd.TrainConfig``'s own training defaults.  Config
files are JSON with the same field names.  A run's ``metadata.json``
sidecar is not itself a config, but its ``config`` object is one: saved as
its own file, it replays the run exactly.  A spec refuses, when it is made,
every setting a run cannot carry out that needs no data, so ``load_spec``
refuses it before a run makes its output directory.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from operator import attrgetter

from .attacks import AdversaryConfig
from .commitments import slots
from .krum import MIN_SAMPLE, krum_sample_size, max_tolerable_f, updates_per_block
from .ledger import ProtocolConfig
from .sgd import TrainConfig


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
        u32, u64 = (1 << 32) - 1, (1 << 64) - 1  # genesis slots: the stake is u64, other ints and peer ids u32
        bounds = {
            "number_of_nodes": (1, u32), "total_iterations": (1, u32), "number_of_noisers": (1, u32),
            "number_of_verifiers": (1, u32), "number_of_aggregators": (2, u32), "initial_stake": (1, u64),
            "stake_reward": (0, u32), "seed": (0, float("inf")), "dataset.features": (0, u32),
            "dataset.classes": (0, u32), "train.batch_size": (1, u32),
        }
        for key, (least, most) in bounds.items():
            value = attrgetter(key)(self)
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
            if value > most:
                raise ValueError(f"{key} must be at most {most}, got {value}")
        if self.churn_per_minute < 0:
            raise ValueError(f"churn_per_minute must be non-negative, got {self.churn_per_minute}")
        if not self.privacy_budget_epsilon > 0:
            raise ValueError(f"privacy_budget_epsilon must be positive, got {self.privacy_budget_epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        n = self.number_of_nodes
        # a peer draws its noisers from the other peers, each committee from all
        for key, most in (("number_of_noisers", n - 1), ("number_of_verifiers", n), ("number_of_aggregators", n)):
            if getattr(self, key) > most:
                raise ValueError(f"{key} must be at most {most} with {n} nodes, got {getattr(self, key)}")
        slots(self.protocol_config().model_dim, range(self.number_of_aggregators))
        # the committees may be disjoint, so only this many updaters are sure to reach a verifier's quorum
        updaters = n - self.number_of_verifiers - self.number_of_aggregators
        if updaters < MIN_SAMPLE:
            raise ValueError(
                f"number_of_nodes - number_of_verifiers - number_of_aggregators must be at least {MIN_SAMPLE},"
                f" got {n} - {self.number_of_verifiers} - {self.number_of_aggregators} = {updaters}"
            )

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
        return ProtocolConfig(
            backend_name=self.backend,
            model_family=self.model_family,
            n_features=self.dataset.features,
            n_classes=self.dataset.classes,
            total_iterations=self.total_iterations,
            epsilon=self.privacy_budget_epsilon,
            delta=self.delta,
            num_noisers=self.number_of_noisers,
            num_verifiers=self.number_of_verifiers,
            num_aggregators=self.number_of_aggregators,
            collect_fraction=self.collect_fraction,
            stake_reward=self.stake_reward,
            train=self.train,
        )

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
    if "train" in data and isinstance(data["train"], dict):
        data["train"] = TrainConfig(**data["train"])
    if "dataset" in data and isinstance(data["dataset"], dict):
        d = dict(data["dataset"])
        if "class_weights" in d and d["class_weights"] is not None:
            d["class_weights"] = tuple(d["class_weights"])
        data["dataset"] = DatasetSpec(**d)
    if "adversary" in data and isinstance(data["adversary"], dict):
        data["adversary"] = AdversaryConfig(**data["adversary"])
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


def save_spec(path, spec: ExperimentSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
