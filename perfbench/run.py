"""chainlearn benchmark: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload exp-poisoning --seed 3 --seconds 27 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run is a closed batch in one process and one thread: it sets the workload
up several times, then runs the protocol experiment back to back on as many
seeds derived from ``--seed`` as ``--seconds`` allows at the workload's
nominal length (at least two), auditing each chain with fresh replicas.
Times are scaled to a reference machine speed (see workloads.Meter).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
the layer boundaries (see tracer.py) and reports the per-layer metrics, per
pass of set-up, experiment and audit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where attempted
counts protocol rounds and failed counts them all when any correctness check
fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per run; setup_s is their median
AUDIT_S = 1.0  # seconds of fresh-replica loads per run, at least two per experiment


def import_program():
    """Import chainlearn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chainlearn

    if Path(chainlearn.__file__).resolve().parent != src / "chainlearn":
        raise ImportError(f"chainlearn imported from {chainlearn.__file__}, not {src}")


def percentile(samples, q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float):
    from chainlearn.experiments import build_environment, run_protocol_experiment
    from workloads import Hooks, Meter, audit, check_audit, check_run

    specs = [workload.spec(s) for s in workload.seeds(seed, seconds)]
    meter = Meter()
    hooks = Hooks(meter)
    setups, envs = [], {}
    for i in range(max(SETUPS, len(specs))):
        spec = specs[i % len(specs)]
        env, took = meter.timed(build_environment, spec)
        setups.append(took)
        envs.setdefault(spec.seed, env)

    problems, tips, segments, audit_times = [], [], [], []
    sealed = 0
    for spec in specs:
        run = run_protocol_experiment(spec, envs[spec.seed])
        segments.append(hooks.segments())
        problems += check_run(workload, run, hooks.sim)
        source = run.result.final_ledger
        sealed += source.height
        tips.append(source.tip_hash().hex())
        # audits follow every experiment, so that no one slow spell decides them
        audited, times = audit(source, meter, AUDIT_S / len(specs), 2)
        problems += check_audit(source, audited)
        audit_times += [t / source.height for t in times]
    rounds_ms = [1000.0 * s for segs in segments for s in segs[:-1]]

    rounds = sum(spec.total_iterations for spec in specs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "rounds_per_s": (sealed / sum(map(sum, segments)), "blocks/s"),
        "round_ms_p50": (statistics.median(rounds_ms), "ms"),
        "round_ms_p90": (percentile(rounds_ms, 90), "ms"),
        "audit_blocks_per_s": (1.0 / statistics.median(audit_times), "blocks/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "rounds_sealed_frac": (0.0 if problems else sealed / rounds, "share"),
    }
    info = {
        "tips": dict(zip((spec.seed for spec in specs), tips)),
        "round_samples": len(rounds_ms),
        "audit_loads": len(audit_times),
        "relative_speed": [round(v, 4) for v in hooks.speeds],
        "final_attack_rate": run.metrics.final("attack_rate"),
    }
    # one failed check fails every round of the run
    return metrics, rounds, rounds if problems else 0, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        from layers import traced

        measure = traced
    else:
        measure = end_to_end
    metrics, attempted, failed, problems, info = measure(workload, args.seed, args.seconds)

    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, **info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
