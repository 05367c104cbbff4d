"""Experiment assembly and runners.

Builds the peer population (shards, adversaries, genesis), runs either the
full protocol simulation or the undefended federated-averaging baseline, and
reduces runs to a per-round metrics log:

    iteration, sim_time, validation_error, attack_rate,
    honest_stake_fraction, blocks, forks, dropped_updates

Sweeps (collection fraction, privacy budget, churn) reuse one runner with a
modified spec per grid point.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import subprocess
from dataclasses import dataclass

import numpy as np

from .attacks import (
    STRATEGY_LABEL_FLIP,
    STRATEGY_ZERO_NOISE,
    attack_rate,
    collusion_violation_probability,
    image_similarity,
    invert_gradient,
    poison_dataset,
    write_pgm,
)
from .bootstrap import build_genesis
from .config import ExperimentSpec
from .datasets import Dataset, make_dataset, partition
from .encoding import sha256, u64
from .ledger import Ledger, save_chain
from .models import make_model, validation_error
from .sgd import compute_local_update
from .simnet import Simulation
from .stake import honest_stake_fraction


@dataclass
class Environment:
    genesis: object
    secrets: dict
    datasets: dict
    validation: Dataset
    adversaries: set
    model: object
    reserve_shards: list


@dataclass
class MetricsLog:
    rows: list

    FIELDS = (
        "iteration",
        "sim_time",
        "validation_error",
        "attack_rate",
        "honest_stake_fraction",
        "blocks",
        "forks",
        "dropped_updates",
    )

    def final(self, field: str):
        return self.rows[-1][field] if self.rows else math.nan

    def tail_mean(self, field: str, count: int = 10) -> float:
        vals = [r[field] for r in self.rows[-count:]]
        return float(np.mean(vals)) if vals else math.nan

    def series(self, field: str) -> list:
        return [r[field] for r in self.rows]

    def to_csv(self, path) -> None:
        _write_summary(path, self.FIELDS, [[row[f] for f in self.FIELDS] for row in self.rows])


RESERVE_SHARDS = 24  # spare same-distribution shards handed to rejoining peers


def build_environment(spec: ExperimentSpec) -> Environment:
    """One master dataset split into peer shards, a held-out validation set
    and reserve shards for churn rejoins, so every piece shares one
    distribution.  The spec has refused committees and share layouts that
    cannot be drawn; a dataset of the wrong shape or too short for its split
    is refused here."""
    n_peers = spec.number_of_nodes
    d = spec.dataset
    model = make_model(spec.model_family, d.features, d.classes)
    total = n_peers * d.shard_size + d.validation_size + RESERVE_SHARDS * d.shard_size
    master = make_dataset(d.kind, {**dataclasses.asdict(d), "n": total, **d.params}, seed=spec.seed)
    if (master.n_features, master.num_classes) != (d.features, d.classes):
        raise ValueError(
            f"dataset has {master.n_features} features and {master.num_classes} classes;"
            f" the config names {d.features} and {d.classes}"
        )
    cut_train = n_peers * d.shard_size
    cut_val = cut_train + d.validation_size
    if len(master) < cut_val:  # a short reserve pool is allowed
        raise ValueError(
            f"dataset has {len(master)} examples; {n_peers} peers x {d.shard_size}"
            f" + {d.validation_size} validation need {cut_val}"
        )
    rng = np.random.default_rng(spec.seed + 1)
    order = rng.permutation(len(master))
    train = master.subset(order[:cut_train])
    validation = master.subset(order[cut_train:cut_val])
    reserve_pool = master.subset(order[cut_val:])
    shards = partition(train, n_peers, seed=spec.seed + 1)
    reserve = partition(reserve_pool, RESERVE_SHARDS, seed=spec.seed + 1) if len(reserve_pool) else []

    adv = spec.adversary
    adversaries = set(range(math.ceil(adv.fraction * n_peers))) if adv.fraction > 0 else set()
    datasets = {pid: shards[pid] for pid in range(n_peers)}
    if adversaries and adv.strategy == STRATEGY_LABEL_FLIP:
        # one shared malicious dataset: the target-class examples pooled from
        # the poisoning peers' shards, every label flipped to the destination
        pieces = []
        for pid in sorted(adversaries):
            shard = shards[pid]
            pieces.append(shard.subset(np.flatnonzero(shard.labels == adv.src_label)))
        feats = np.concatenate([p.features for p in pieces])
        labels = np.concatenate([p.labels for p in pieces])
        concentrated = Dataset(feats, labels, spec.dataset.classes)
        shared = poison_dataset(concentrated, adv.src_label, adv.dst_label)
        for pid in adversaries:
            datasets[pid] = shared

    zero_noise = adversaries if (adversaries and adv.strategy == STRATEGY_ZERO_NOISE) else frozenset()
    genesis, secrets = build_genesis(
        spec.protocol_config(),
        range(n_peers),
        master_seed=sha256(b"experiment" + u64(spec.seed) + spec.name.encode()),
        initial_stake=spec.initial_stake,
        zero_noise_peers=zero_noise,
    )
    return Environment(genesis, secrets, datasets, validation, adversaries, model, reserve)


@dataclass
class ExperimentRun:
    result: object  # SimResult, None for baseline runs
    metrics: MetricsLog


def _score(env: Environment, spec: ExperimentSpec, t: int, sim_time: float, weights,
           stake: float, blocks: int, forks: int, dropped: int) -> dict:
    """Round ``t``'s metrics row, in ``MetricsLog.FIELDS`` order: ``weights``
    scored on the validation set, the attack rate NaN when no validation
    example holds the attacked class."""
    src = spec.adversary.src_label
    attacked = src < spec.dataset.classes and (env.validation.labels == src).any()
    scores = (validation_error(env.model, weights, env.validation),
              attack_rate(env.model, weights, env.validation, src) if attacked else math.nan)
    return dict(zip(MetricsLog.FIELDS, (t, sim_time, *scores, stake, blocks, forks, dropped), strict=True))


def run_protocol_experiment(spec: ExperimentSpec, env: Environment | None = None) -> ExperimentRun:
    env = env or build_environment(spec)

    def fresh_shard(peer: int, join_count: int) -> Dataset:
        if not env.reserve_shards:
            return env.datasets[peer]
        idx = (7919 * peer + 104729 * join_count) % len(env.reserve_shards)
        return env.reserve_shards[idx]

    sim = Simulation(
        env.genesis, env.secrets, env.datasets, spec.churn_per_minute, spec.seed, fresh_shard
    )
    result = sim.run()
    if result.deadlocked:
        raise RuntimeError(
            f"simulation deadlocked at t={result.final_time:.1f}s with "
            f"height {result.final_ledger.height}"
        )

    honest = set(env.genesis.peer_pubkeys) - env.adversaries
    replay = Ledger(env.genesis)
    by_round = {block.iteration: (when, block) for when, block in result.block_records}
    rows = []
    weights = env.genesis.initial_model
    sim_time = 0.0
    for t in range(1, spec.total_iterations + 1):
        if t in by_round:
            sim_time, block = by_round[t]
            ok, reason = replay.append(block)
            if not ok:
                raise RuntimeError(f"metrics replay rejected block {t}: {reason}")
            weights = block.model_weights
        stake = honest_stake_fraction(replay.stake, honest)
        rows.append(_score(env, spec, t, round(sim_time, 6), weights, stake, replay.height, result.forks,
                           result.dropped_updates.get(t, 0)))
    return ExperimentRun(result, MetricsLog(rows))


def run_fl_baseline(spec: ExperimentSpec, env: Environment | None = None) -> ExperimentRun:
    """Undefended federated aggregation: per round, a uniform sample of peers
    submits one local update each and the sum is applied, no checks at all."""
    env = env or build_environment(spec)
    model = env.model
    weights = np.zeros(model.dim)
    rng = np.random.default_rng(spec.seed + 13)
    peer_ids = sorted(env.datasets)
    u = spec.updates_per_block_u
    honest = set(peer_ids) - env.adversaries
    rows = []
    for t in range(1, spec.total_iterations + 1):
        picked = rng.choice(peer_ids, size=min(u, len(peer_ids)), replace=False)
        total = np.zeros(model.dim)
        for pid in sorted(int(p) for p in picked):
            seed = int.from_bytes(sha256(b"fl-batch" + u64(spec.seed) + u64(pid) + u64(t)), "big")
            total += compute_local_update(model, weights, t - 1, env.datasets[pid], spec.train, seed)
        weights = weights + total
        rows.append(_score(env, spec, t, float(t), weights, len(honest) / len(peer_ids), t, 0, 0))
    return ExperimentRun(None, MetricsLog(rows))


# --- the synthetic image task for gradient inversion --------------------------


def synthetic_image_task(n_classes: int = 3, side: int = 8, per_class: int = 12, seed: int = 0):
    """Training images with strong per-example identity: a weak shared class
    pattern plus a dominant individual pattern, so blending multiple examples
    visibly destroys any single one."""
    rng = np.random.default_rng(seed)
    n_features = side * side
    class_patterns = rng.uniform(0.0, 1.0, size=(n_classes, n_features))
    feats = []
    labels = []
    for c in range(n_classes):
        for _ in range(per_class):
            individual = rng.uniform(0.0, 1.0, size=n_features)
            feats.append(0.35 * class_patterns[c] + 0.65 * individual)
            labels.append(c)
    order = rng.permutation(len(labels))
    return Dataset(np.asarray(feats)[order], np.asarray(labels, dtype=np.int64)[order], n_classes)


def inversion_batching_experiment(
    batch_counts=(1, 5, 15, 35), label: int = 0, side: int = 8, seed: int = 0
):
    """Aggregate 1..u single-example updates at the zero model, invert the
    target class block and score it against the nearest contributing image.

    Returns (results, images): results is a list of (batch count, similarity),
    images maps batch count -> the inverted 8-bit image.
    """
    from .sgd import TrainConfig

    n_classes = 3
    max_batch = max(batch_counts)
    data = synthetic_image_task(n_classes, side, per_class=(max_batch // n_classes) + 2, seed=seed)
    # interleave classes so every prefix starts with the target class
    by_class = {c: [i for i in range(len(data)) if data.labels[i] == c] for c in range(n_classes)}
    order = []
    for i in range(max_batch):
        order.append(by_class[(label + i) % n_classes][i // n_classes])

    model = make_model("softmax", side * side, n_classes)
    cfg = TrainConfig(eta0=0.1, eta_decay=0.0, weight_decay=0.0, batch_size=1)
    updates = []
    for idx in order:
        single = data.subset([idx])
        updates.append(compute_local_update(model, np.zeros(model.dim), 0, single, cfg, rng_seed=idx))

    results = []
    images = {}
    for count in batch_counts:
        aggregate = np.sum(updates[:count], axis=0)
        image = invert_gradient(aggregate, side * side, n_classes, (side, side), label)
        contributors = data.features[order[:count]]
        sim = max(image_similarity(image, x.reshape(side, side)) for x in contributors)
        results.append((count, sim))
        images[count] = image
    return results, images


# --- named experiments ---------------------------------------------------------


def _build_id() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "untracked"


def write_metadata(out_dir, spec: ExperimentSpec, summary: dict) -> None:
    payload = {"config": spec.to_dict(), "build": _build_id(), "summary": summary}
    if spec.backend == "exponent":
        payload["insecure_backend"] = True  # debug group: nothing is hidden
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_summary(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _baseline(spec: ExperimentSpec, out_dir) -> dict:
    run = run_protocol_experiment(spec)
    run.metrics.to_csv(out_dir / "metrics.csv")
    _save_chain(out_dir, run)
    return {
        "final_validation_error": run.metrics.final("validation_error"),
        "blocks": run.metrics.final("blocks"),
    }


def _poisoning_comparison(spec: ExperimentSpec, out_dir) -> dict:
    clean = dataclasses.replace(spec, adversary=dataclasses.replace(spec.adversary, fraction=0.0))
    fl_clean = run_fl_baseline(clean)
    fl_poisoned = run_fl_baseline(spec)
    defended = run_protocol_experiment(spec)
    fl_clean.metrics.to_csv(out_dir / "federated_clean.csv")
    fl_poisoned.metrics.to_csv(out_dir / "federated_poisoned.csv")
    defended.metrics.to_csv(out_dir / "protocol_poisoned.csv")
    _save_chain(out_dir, defended)
    return {
        "federated_clean_final_error": fl_clean.metrics.final("validation_error"),
        "federated_poisoned_max_attack": max(fl_poisoned.metrics.series("attack_rate")),
        "protocol_final_attack": defended.metrics.final("attack_rate"),
        "protocol_final_error": defended.metrics.final("validation_error"),
        "honest_stake_final": defended.metrics.final("honest_stake_fraction"),
    }


def _sweep(key: str, field: str, values, csv_name, spec: ExperimentSpec, out_dir) -> dict:
    """Run the protocol at each ``spec.sweep[key]`` value (default ``values``)
    of spec field ``field`` for ``spec.sweep["seeds"]`` seeds each.  Every
    point is built, so refused, before any runs or anything is written."""
    points = [(value, dataclasses.replace(spec, seed=spec.seed + ds, **{field: value}))
              for value in spec.sweep.get(key, values) for ds in range(spec.sweep.get("seeds", 3))]
    rows = []
    for value, point in points:
        run = run_protocol_experiment(point)
        run.metrics.to_csv(out_dir / csv_name(value, point.seed))
        rows.append([value, point.seed, run.metrics.tail_mean("attack_rate"), run.metrics.final("validation_error")])
    _write_summary(out_dir / "summary.csv", [key, "seed", "attack_rate", "validation_error"], rows)
    return {"grid": rows}


def _churn(spec: ExperimentSpec, out_dir) -> dict:
    churned = run_protocol_experiment(spec)
    still = run_protocol_experiment(dataclasses.replace(spec, churn_per_minute=0.0))
    churned.metrics.to_csv(out_dir / "churned.csv")
    still.metrics.to_csv(out_dir / "zero_churn.csv")
    _save_chain(out_dir, churned)
    return {
        "churned_final_error": churned.metrics.final("validation_error"),
        "zero_churn_final_error": still.metrics.final("validation_error"),
        "churned_blocks": churned.metrics.final("blocks"),
        "forks": churned.metrics.final("forks"),
    }


def _inversion(spec: ExperimentSpec, out_dir) -> dict:
    results, images = inversion_batching_experiment(seed=spec.seed)
    for count, image in images.items():
        write_pgm(out_dir / f"inverted_batch{count:02d}.pgm", image)
    _write_summary(out_dir / "similarity.csv", ["batch_count", "nearest_cosine"], results)
    return {"similarity": results}


def _collusion_grid(spec: ExperimentSpec, out_dir) -> dict:
    rows = []
    trials = spec.sweep.get("trials", 10_000)
    for noisers in spec.sweep.get("noisers", [3, 5, 10]):
        for frac in spec.sweep.get("stake_fractions", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]):
            p = collusion_violation_probability(frac, noisers, trials, seed=spec.seed)
            rows.append([noisers, frac, p])
    _write_summary(out_dir / "collusion.csv", ["noisers", "malicious_stake_fraction", "violation_probability"], rows)
    return {"grid": rows}


# experiment name -> (runner(spec, out_dir) returning its summary fields,
# the ``spec.sweep`` keys it reads)
EXPERIMENTS = {
    "baseline": (_baseline, ()),
    "poisoning-comparison": (_poisoning_comparison, ()),
    "sample-fraction-sweep": (
        functools.partial(
            _sweep, "collect_fraction", "collect_fraction", [0.5, 0.7, 0.9],
            lambda v, seed: f"fraction_{int(v * 100)}_seed{seed}.csv",
        ),
        ("collect_fraction", "seeds"),
    ),
    "epsilon-sweep": (
        functools.partial(
            _sweep, "epsilon", "privacy_budget_epsilon", [0.5, 1.0, 2.0],
            lambda v, seed: f"epsilon_{v}_seed{seed}.csv",
        ),
        ("epsilon", "seeds"),
    ),
    "churn": (_churn, ()),
    "inversion": (_inversion, ()),
    "collusion-grid": (_collusion_grid, ("noisers", "stake_fractions", "trials")),
}


def run_named_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Run the experiment named by spec.name; writes CSVs (plus chain/PGM
    artifacts) and metadata.json into out_dir and returns a summary dict.
    A sweep key the experiment does not read is refused before out_dir is
    made; a run refused before it writes anything (a sweep's grid point or
    its data refused, say) removes the directories it made."""
    if spec.name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {spec.name!r}")
    runner, sweep_keys = EXPERIMENTS[spec.name]
    unread = sorted(set(spec.sweep) - set(sweep_keys))
    if unread:
        raise ValueError(
            f"experiment {spec.name!r} does not read sweep key {unread[0]!r}; "
            f"it reads {list(sweep_keys)}"
        )
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # innermost first
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary = {"experiment": spec.name, **runner(spec, out_dir)}
    except ValueError:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    write_metadata(out_dir, spec, summary)
    return summary


def _save_chain(out_dir, run: ExperimentRun) -> None:
    save_chain(out_dir / "chain.bin", run.result.final_ledger)
