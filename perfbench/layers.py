"""The traced run: per-layer calls and times for one workload.

Every figure is per pass, where a pass is one set-up, one protocol experiment
and one fresh-replica audit, all traced; a run makes one pass for each seed
the untraced run would use, and averages them.  ``experiments.fl_baseline_ms``
is the undefended single-process baseline of the same task, timed once with
tracing removed.  ``trace.rounds_per_s`` is the traced run's throughput; its
gap to the untraced ``rounds_per_s`` is the tracing overhead.
"""

from __future__ import annotations

import heapq
import importlib
import time

from tracer import Tracer

# (metric prefix, module, function) pairs, rebound in every importing module
FUNCTIONS = [
    ("commitments.commit", "commitments", "commit"),
    ("commitments.create_witness", "commitments", "create_witness"),
    ("commitments.verify_share", "commitments", "verify_share"),
    ("commitments.trusted_setup", "commitments", "trusted_setup"),
    ("signatures.sign", "signatures", "sign"),
    ("signatures.verify", "signatures", "verify"),
    ("noise.build_noise_table", "noise", "build_noise_table"),
    ("noise.generate_noise", "noise", "generate_noise"),
    ("bootstrap.build_genesis", "bootstrap", "build_genesis"),
    ("datasets.make_dataset", "datasets", "make_dataset"),
    ("krum.multi_krum_select", "krum", "multi_krum_select"),
    ("stake.build_ring", "stake", "build_ring"),
    ("committees.draw_committee", "committees", "draw_committee"),
    ("committees.verify_vrf", "committees", "verify_vrf"),
    ("quantize.encode", "quantize", "encode"),
    ("quantize.decode", "quantize", "decode"),
    ("sgd.compute_local_update", "sgd", "compute_local_update"),
    ("models.validation_error", "models", "validation_error"),
    ("vss.deal_shares", "vss", "deal_shares"),
    ("vss.sum_shares", "vss", "sum_shares"),
    ("vss.recover_aggregate", "vss", "recover_aggregate"),
    ("ledger.block_hash", "ledger", "block_hash"),
    ("ledger.round_committees", "ledger", "round_committees"),
    ("ledger.load_chain", "ledger", "load_chain"),
]
GROUP_SPANS = ["g1_mul", "g1_add", "pair", "gt_pow", "g1_from_bytes"]
HANDLED = [
    "NoiseRequest", "NoiseResponse", "UpdateSubmission", "SignatureGrant", "BundleMsg",
    "AggAnnounce", "AggShareMsg", "BlockMsg", "ChainRequest", "ChainResponse", "Timer",
]
# spans reported as calls plus inclusive ms, and those reported as ms only
CALLS_AND_MS = [
    *(f"groups.{op}" for op in GROUP_SPANS),
    "commitments.commit", "commitments.create_witness", "commitments.verify_share",
    "signatures.sign", "signatures.verify", "noise.generate_noise",
    "krum.multi_krum_select", "stake.build_ring", "committees.draw_committee",
    "committees.verify_vrf", "quantize.encode", "quantize.decode",
    "sgd.compute_local_update", "models.validation_error", "vss.deal_shares",
    "vss.accept_bundle", "vss.recover_aggregate", "ledger.block_hash",
    "ledger.genesis_hash", "ledger.validate_block", "ledger.round_committees",
    "ledger.catch_up", "protocol.start_round",
]
MS_ONLY = [
    "commitments.trusted_setup", "noise.build_noise_table", "bootstrap.build_genesis",
    "datasets.make_dataset", "vss.sum_shares", "ledger.load_chain", "simnet.run",
]


class Probe:
    """The simulation that ran last, and how many of its events went to
    peers that were offline when the event came due."""

    def __init__(self):
        self.sim = None
        self.time_cap = 0.0
        self.to_offline = 0

    def heappop(self, events):
        item = heapq.heappop(events)
        due, _, target, _ = item
        if target != -1 and due <= self.time_cap and not self.sim.online[target]:
            self.to_offline += 1
        return item

    heappush = staticmethod(heapq.heappush)


def install(tracer: Tracer, probe: Probe) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from chainlearn import groups, ledger, protocol, simnet, vss

    for name, module, attr in FUNCTIONS:
        tracer.patch_function(
            importlib.import_module(f"chainlearn.{module}"), attr,
            lambda fn, name=name: tracer.span(name, fn),
        )
    tracer.patch_function(
        vss, "accept_bundle", lambda fn: tracer.span("vss.accept_bundle", fn, outcome=True)
    )
    # every block serialisation passes here; block_hash and the spans above
    # it carry the time
    tracer.patch_function(
        ledger, "block_content_bytes", lambda fn: tracer.counter("ledger.serialisations", fn)
    )
    for cls in (groups.PairingGroup, groups.ExponentGroup):
        for op in GROUP_SPANS:
            tracer.patch_method(cls, op, lambda fn, op=op: tracer.span(f"groups.{op}", fn))
        # over a million one-line calls a run on the exponent group: count only
        tracer.patch_method(cls, "g1_to_bytes", lambda fn: tracer.counter("groups.g1_to_bytes", fn))
    tracer.patch_method(ledger.GenesisBlock, "hash", lambda fn: tracer.span("ledger.genesis_hash", fn))
    tracer.patch_method(ledger.Ledger, "validate_block", lambda fn: tracer.span("ledger.validate_block", fn))
    tracer.patch_method(ledger.Ledger, "catch_up", lambda fn: tracer.span("ledger.catch_up", fn))
    tracer.patch_method(protocol.PeerNode, "start_round", lambda fn: tracer.span("protocol.start_round", fn))
    tracer.patch_method(protocol.PeerNode, "handle", lambda fn: tracer.span_by_type("protocol.handle", fn))

    def capture(run):
        def captured(sim):
            probe.sim = sim
            probe.time_cap = (sim.genesis.config.total_iterations + 3) * sim.timeouts.round_budget
            return run(sim)

        return captured

    tracer.patch_method(simnet.Simulation, "run", lambda fn: capture(tracer.span("simnet.run", fn)))
    tracer.replace(simnet, "heapq", probe)


def messages_handled(tracer: Tracer) -> int:
    return sum(
        stat.calls
        for name, stat in tracer.stats.items()
        if name.startswith("protocol.handle.") and name != "protocol.handle.Timer"
    )


def traced(workload, seed: int, seconds: float):
    from chainlearn.experiments import build_environment, run_fl_baseline, run_protocol_experiment
    from workloads import Hooks, Meter, audit, check_audit, check_run

    specs = [workload.spec(s) for s in workload.seeds(seed, seconds)]
    tracer, probe = Tracer(), Probe()
    install(tracer, probe)
    meter = Meter()
    hooks = Hooks(meter)  # outside the spans, as in the untraced run; uninstall removes it
    problems, tips, segments = [], [], []
    sealed, experiment_s, sim_s, log_entries, messages = 0, 0.0, 0.0, 0, 0
    for spec in specs:
        env = build_environment(spec)
        handled_before = messages_handled(tracer)
        ran = time.perf_counter()
        run = run_protocol_experiment(spec, env)
        experiment_s += time.perf_counter() - ran
        segments.append(hooks.segments())
        problems += check_run(workload, run, probe.sim)
        audited, _ = audit(run.result.final_ledger, meter, 0.0, 1)
        problems += check_audit(run.result.final_ledger, audited)
        sealed += run.result.final_ledger.height
        sim_s += run.result.final_time
        tips.append(run.result.final_ledger.tip_hash().hex())
        log_entries += sum(len(peer.audit) for peer in probe.sim.peers.values())
        messages += messages_handled(tracer) - handled_before
    tracer.uninstall()

    start = time.perf_counter()
    run_fl_baseline(spec, env)
    fl_baseline_ms = 1000.0 * (time.perf_counter() - start)

    stats = tracer.stats
    passes = len(specs)
    rounds = sum(spec.total_iterations for spec in specs)

    def per_pass(name, field):
        return getattr(stats[name], field) / passes if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in CALLS_AND_MS:
        metrics[f"{name}.calls"] = (per_pass(name, "calls"), "count")
        metrics[f"{name}.ms"] = (1000.0 * per_pass(name, "inclusive"), "ms")
    for name in MS_ONLY:
        metrics[f"{name}.ms"] = (1000.0 * per_pass(name, "inclusive"), "ms")
    metrics["groups.g1_to_bytes.calls"] = (per_pass("groups.g1_to_bytes", "calls"), "count")
    for kind in HANDLED:
        name = f"protocol.handle.{kind}"
        metrics[f"{name}.calls"] = (per_pass(name, "calls"), "count")
        metrics[f"{name}.ms"] = (1000.0 * per_pass(name, "inclusive"), "ms")
        metrics[f"{name}.self_ms"] = (1000.0 * per_pass(name, "self_time"), "ms")
    delivered = sum(per_pass(f"protocol.handle.{k}", "calls") for k in HANDLED)
    blocks = sealed / passes
    metrics.update(
        {
            "signatures.verify_per_block": (ratio(per_pass("signatures.verify", "calls"), blocks), "calls/block"),
            "stake.build_ring_per_round": (ratio(per_pass("stake.build_ring", "calls") * passes, rounds), "calls/round"),
            "vss.bundle_accept_ratio": (ratio(stats["vss.accept_bundle"].truthy, stats["vss.accept_bundle"].calls), "share"),
            "ledger.serialisations_per_block": (ratio(per_pass("ledger.serialisations", "calls"), blocks), "calls/block"),
            "protocol.dropped_ratio": (ratio(log_entries, messages), "share"),
            "simnet.events_delivered": (delivered, "count"),
            "simnet.events_to_offline": (probe.to_offline / passes, "count"),
            "simnet.sim_s_per_round": (sim_s / rounds, "s/round"),
            "experiments.replay_ms": (1000.0 * experiment_s / passes - metrics["simnet.run.ms"][0], "ms"),
            "experiments.fl_baseline_ms": (fl_baseline_ms, "ms"),
            "trace.rounds_per_s": (sealed / sum(map(sum, segments)), "blocks/s"),
        }
    )
    info = {"tips": dict(zip((spec.seed for spec in specs), tips))}
    return metrics, rounds, rounds if problems else 0, problems, info
