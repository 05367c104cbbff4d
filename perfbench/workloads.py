"""The three benchmark workloads, how a run observes and times the program,
and the checks every run must pass.

Each workload is an ``ExperimentSpec`` built from the workload seed, so the
program receives only generated inputs.  See README.md for why each one was
chosen and which layer metrics it is meant to move.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from chainlearn.attacks import STRATEGY_LABEL_FLIP, AdversaryConfig
from chainlearn.config import DatasetSpec, ExperimentSpec
from chainlearn.sgd import TrainConfig

# criterion 3: the undefended baseline reaches an attack rate of at least 0.5.
# Its defended bound of 0.15 is not a gate here: see README.md.
UNDEFENDED_ATTACK = 0.5

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: object  # seed -> ExperimentSpec
    experiment_s: float  # nominal length of one experiment, 2 CPUs, seed commit
    min_height: int  # sealed blocks every correct run reaches
    attack_bound: float | None = None  # final attack rate a correct run stays under

    def seeds(self, seed: int, seconds: float) -> list[int]:
        """Spec seeds of a run's experiments.  Their number is fixed by the
        run length, not by how fast this commit is, so every commit measures
        the same work; distinct seeds average out how much work one seed's
        committee draws happen to make."""
        return [seed + 1000 * i for i in range(max(2, int(seconds // self.experiment_s)))]


def acceptance_spec(seed: int, **over) -> ExperimentSpec:
    """tests/test_acceptance.py::experiment_spec run for 100 rounds: 50 peers,
    30 % label-flip poisoners, epsilon 2, R = 35."""
    base = dict(
        name="acceptance",
        number_of_nodes=50,
        total_iterations=100,
        adversary=AdversaryConfig(
            fraction=0.30, strategy=STRATEGY_LABEL_FLIP, src_label=1, dst_label=0
        ),
        dataset=DatasetSpec(
            separation=6.0,
            noise_std=1.0,
            class_weights=(0.75, 0.25),
            shard_size=300,
            validation_size=2000,
        ),
        train=TrainConfig(eta0=0.008, eta_decay=0.04, weight_decay=1e-4, batch_size=256),
        seed=seed,
    )
    base.update(over)
    return ExperimentSpec(**base)


def churn_spec(seed: int) -> ExperimentSpec:
    # 12 fail+join events per simulated minute: about 100 catch-ups a run,
    # where criterion 7's rate of 2 gives too few to see
    return acceptance_spec(
        seed, name="churn", adversary=AdversaryConfig(), churn_per_minute=12.0
    )


def pairing_spec(seed: int) -> ExperimentSpec:
    """The shape of test_full_protocol_on_pairing_backend: 8 peers, 2 rounds,
    2 features, 2 aggregators on the Tate-pairing group."""
    return ExperimentSpec(
        name="pairing",
        number_of_nodes=8,
        total_iterations=2,
        number_of_aggregators=2,
        backend="pairing",
        dataset=DatasetSpec(features=2, shard_size=80, validation_size=400),
        train=TrainConfig(eta0=0.05, eta_decay=0.02, weight_decay=1e-4, batch_size=8),
        seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exp-poisoning",
            "steady-state protocol on the exponent group: replicated block "
            "validation, signatures and committee draws dominate",
            acceptance_spec,
            experiment_s=13.0,
            min_height=100,
            attack_bound=UNDEFENDED_ATTACK,
        ),
        Workload(
            "exp-churn",
            "peers fail and rejoin, so catch-up replays whole chains and "
            "rounds with an offline proposer are voided",
            churn_spec,
            experiment_s=13.0,
            min_height=85,
        ),
        Workload(
            "pairing-8x2",
            "real Tate-pairing group: group arithmetic, commitments and share "
            "checks dominate, ledger serialisation is negligible",
            pairing_spec,
            experiment_s=9.0,
            min_height=2,
        ),
    )
}


# One pass of reference_loop() takes this long at the reference speed: the
# median on the machine the baseline was measured on (2 vCPUs, 2.1 GHz Xeon).
REFERENCE_S = 0.0009
SAMPLE_EVERY_S = 0.05  # program time between speed samples in a simulation
_MODULUS = (1 << 512) + 0x9C3


def reference_loop() -> int:
    """Fixed work in the two kinds the program does: interpreted bytecode and
    big-integer arithmetic."""
    x = 0
    for i in range(5000):
        x = (x * 31 + i) % 1000003
    for _ in range(2):
        x = pow(x + 3, 0xF123456789ABCDEF0123456789ABCDEF, _MODULUS)
    return x


class Meter:
    """The machine's current speed relative to the reference, sampled by
    timing reference_loop().  On a shared machine the speed of one CPU swings
    by a fifth within seconds and drifts for minutes; scaling a measured time
    by the mean relative speed sampled beside it reports the time the work
    would take at the reference speed."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds spent sampling, kept out of measured times

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - start
            self.speeds.append(REFERENCE_S / took)
            self.spent += took

    def clock(self) -> float:
        """Wall time minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def take(self) -> float:
        """Mean relative speed over the samples since the last take."""
        speed = statistics.fmean(self.speeds)
        self.speeds = []
        return speed

    def timed(self, fn, *args):
        """``fn(*args)`` and its time at the reference speed, sampled around it."""
        self.sample(3)
        start = time.perf_counter()
        result = fn(*args)
        took = time.perf_counter() - start
        self.sample(3)
        return result, took * self.take()


class Hooks:
    """Observes a simulation from outside: which Simulation ran last, and the
    time at which each block was first sealed (a handler returned its
    BlockMsg).  Between events it samples the machine's speed every
    SAMPLE_EVERY_S; times are on the meter's clock, which leaves the sampling
    out."""

    def __init__(self, meter: Meter):
        from chainlearn import protocol, simnet

        self.meter = meter
        self.sim = None
        self.started = 0.0
        self.seals: dict[int, float] = {}
        self.speeds: list[float] = []  # mean relative speed of each simulation
        self.sampled = 0.0  # meter clock at the last speed sample
        hooks = self
        block_msg = protocol.BlockMsg
        run, handle = simnet.Simulation.run, protocol.PeerNode.handle

        def hooked_run(sim):
            hooks.sim, hooks.seals = sim, {}
            meter.sample()
            hooks.started = hooks.sampled = meter.clock()
            return run(sim)

        def hooked_handle(peer, event, now):
            actions = handle(peer, event, now)
            for _, payload, _ in actions:
                if type(payload) is block_msg and payload.block.iteration not in hooks.seals:
                    hooks.seals[payload.block.iteration] = meter.clock()
            if meter.clock() - hooks.sampled >= SAMPLE_EVERY_S:
                meter.sample()
                hooks.sampled = meter.clock()
            return actions

        simnet.Simulation.run = hooked_run
        protocol.PeerNode.handle = hooked_handle

    def segments(self) -> list[float]:
        """Seconds at the reference speed from the start of the simulation to
        the first seal, between successive first seals, and from the last
        seal to now."""
        marks = [self.started, *(self.seals[t] for t in sorted(self.seals)), self.meter.clock()]
        self.meter.sample()
        speed = self.meter.take()
        self.speeds.append(speed)
        return [(b - a) * speed for a, b in zip(marks, marks[1:])]


def check_run(workload: Workload, run, sim) -> list[str]:
    """Correctness problems with one experiment; empty when it is correct."""
    problems = []
    result = run.result
    height = result.final_ledger.height
    if height < workload.min_height:
        problems.append(f"height {height} < {workload.min_height}")
    if result.forks:
        problems.append(f"{result.forks} forks")
    tips = {peer.ledger.tip_hash() for pid, peer in sim.peers.items() if sim.online[pid]}
    if tips != {result.final_ledger.tip_hash()}:
        problems.append(f"online replicas disagree: {len(tips)} distinct tips")
    if workload.attack_bound is not None:
        attack = run.metrics.final("attack_rate")
        if not attack <= workload.attack_bound:
            problems.append(f"final attack rate {attack:.4f} > {workload.attack_bound}")
    return problems


def check_audit(source, audited) -> list[str]:
    """A fresh replica loaded from the saved chain must match the source."""
    problems = []
    if audited.height != source.height:
        problems.append(f"audit height {audited.height} != {source.height}")
    if audited.tip_hash() != source.tip_hash():
        problems.append("audit tip hash differs")
    if audited.stake != source.stake:
        problems.append("audit stake map differs")
    return problems


def audit(ledger, meter: Meter, seconds: float, loads: int):
    """Save the chain, then load and revalidate it from genesis, at least
    ``loads`` times and for ``seconds``; returns the last fresh replica and
    the time of each load at the reference speed."""
    from chainlearn.ledger import load_chain, save_chain

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"chain-{os.getpid()}.bin"
    save_chain(path, ledger)
    times, audited = [], None
    began = time.perf_counter()
    try:
        while len(times) < loads or time.perf_counter() - began < seconds:
            audited, took = meter.timed(load_chain, path, ledger.backend)
            times.append(took)
    finally:
        os.remove(path)
    return audited, times
