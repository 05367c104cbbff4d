"""Check that the tracer sees every call it claims to count, and that the
benchmark's wrappers leave the chain byte-identical.

    python3 perfbench/coverage.py

On two small specs (the exponent group with poisoners and churn, and the
pairing group) it runs the experiment and an audit three ways: unmodified,
with the end-to-end hooks, and with the tracer under cProfile.  Every traced
call count must equal cProfile's count for the wrapped function, and all
three runs must reach the same tip hash.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import sys

import run

run.import_program()

from chainlearn.experiments import build_environment, run_protocol_experiment  # noqa: E402

from layers import Probe, install  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Hooks, Meter, acceptance_spec, audit, pairing_spec  # noqa: E402

SPECS = {
    "exponent, poisoners and churn": acceptance_spec(
        5, number_of_nodes=12, total_iterations=6, churn_per_minute=30.0
    ),
    "pairing": dataclasses.replace(pairing_spec(5), total_iterations=1),
}


def experiment(spec) -> bytes:
    ledger = run_protocol_experiment(spec, build_environment(spec)).result.final_ledger
    audited, _ = audit(ledger, Meter(), 0.0, 1)
    return audited.tip_hash()


def profiled_counts(spec):
    """Traced calls and cProfile calls per wrapped function, and the tip."""
    tracer = Tracer()
    install(tracer, Probe())
    profile = cProfile.Profile()
    profile.enable()
    try:
        tip = experiment(spec)
    finally:
        profile.disable()
        tracer.uninstall()
    profiled = {
        (file, line, func): calls
        for (file, line, func), (_, calls, _, _, _) in pstats.Stats(profile).stats.items()
    }
    traced, wrapped = {}, {}
    for name, fns in tracer.wrapped.items():
        # every handler span wraps the one PeerNode.handle
        key = "protocol.handle.*" if name.startswith("protocol.handle.") else name
        traced[key] = traced.get(key, 0) + tracer.stats[name].calls
        wrapped.setdefault(key, set()).update(fns)
    rows = {}
    for key, fns in wrapped.items():
        codes = [fn.__code__ for fn in fns]
        expected = sum(profiled.get((c.co_filename, c.co_firstlineno, c.co_name), 0) for c in codes)
        rows[key] = (traced[key], expected)
    return rows, tip


def main() -> int:
    ok, plain = True, {}
    for label, spec in SPECS.items():
        plain[label] = experiment(spec)
        rows, traced_tip = profiled_counts(spec)
        print(f"{label}: tip {plain[label].hex()}")
        for name, (traced, expected) in sorted(rows.items()):
            flag = "ok" if traced == expected else "MISMATCH"
            ok &= traced == expected
            print(f"  {name:34s} traced {traced:9d}  cProfile {expected:9d}  {flag}")
        if traced_tip != plain[label]:
            ok = False
            print("  traced run reached a different tip: MISMATCH")
    Hooks(Meter())  # installed for good: this runs last
    for label, spec in SPECS.items():
        if experiment(spec) != plain[label]:
            ok = False
            print(f"{label}: run with the end-to-end hooks reached a different tip: MISMATCH")
    print("coverage check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
