"""Command-line entry point.

Subcommands:
  run             execute a named experiment from a JSON config
  verify-chain    revalidate a persisted chain file block by block
  krum-bench      cross-check the update filter against brute force and time it
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainlearn",
        description="Ledger-coordinated peer-to-peer training experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    p_run.add_argument("--experiment", default=None, help="override the experiment name")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_verify = sub.add_parser("verify-chain", help="revalidate a chain file")
    p_verify.add_argument("chain", type=Path)
    p_verify.add_argument("--backend", default="exponent", choices=["exponent", "pairing"])
    p_verify.add_argument("--dump", action="store_true", help="print one line per block")
    p_verify.set_defaults(handler=_cmd_verify_chain)

    p_bench = sub.add_parser("krum-bench", help="filter oracle check and timing")
    p_bench.add_argument("--cases", type=int, default=1000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(handler=_cmd_krum_bench)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run(args) -> int:
    from .config import ExperimentSpec, load_spec
    from .experiments import run_named_experiment

    spec = load_spec(args.config) if args.config else ExperimentSpec()
    if args.experiment:
        spec = dataclasses.replace(spec, name=args.experiment)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    started = time.time()
    summary = run_named_experiment(spec, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    print(f"wrote {args.out}/ in {time.time() - started:.1f}s")
    return 0


def _cmd_verify_chain(args) -> int:
    from .groups import get_backend
    from .ledger import block_hash, load_chain

    backend = get_backend(args.backend)
    ledger = load_chain(args.chain, backend)
    if args.dump:
        print(f"genesis {ledger.genesis.hash().hex()[:16]} peers={len(ledger.genesis.peer_pubkeys)}")
        for block in ledger.blocks:
            print(
                f"iteration {block.iteration:4d}  {block_hash(block, backend).hex()[:16]}  "
                f"updates={len(block.commitments)}"
            )
    print(
        f"{args.chain}: OK, {ledger.height} blocks, tip iteration "
        f"{ledger.tip_iteration()}, tip {ledger.tip_hash().hex()[:16]}"
    )
    return 0


def _cmd_krum_bench(args) -> int:
    import random

    from .krum import KrumConfig, krum_scores, max_tolerable_f, multi_krum_select

    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.cases):
        R = rng.randint(4, 8)
        f = rng.randint(0, max_tolerable_f(R))
        X = [[rng.uniform(-5, 5) for _ in range(rng.randint(1, 4))] for _ in range(R)]
        dim = min(len(row) for row in X)
        X = np.array([row[:dim] for row in X])
        cfg = KrumConfig(R, f)
        got = multi_krum_select(X, cfg)
        want = _brute_force(X.tolist(), R, f)
        if got != want:
            mismatches += 1
    print(f"oracle agreement: {args.cases - mismatches}/{args.cases}")

    big = np.random.default_rng(args.seed).normal(size=(70, 100))
    cfg = KrumConfig(70, max_tolerable_f(70))
    started = time.time()
    for _ in range(20):
        krum_scores(big, cfg)
    per_call = (time.time() - started) / 20
    print(f"scoring 70x100 floats: {per_call * 1e3:.2f} ms per call")
    return 0 if mismatches == 0 else 1


def _brute_force(updates, R, f):
    scores = []
    for i in range(R):
        dists = sorted(
            sum((a - b) ** 2 for a, b in zip(updates[i], updates[j]))
            for j in range(R)
            if j != i
        )
        scores.append(sum(dists[: R - f - 2]))
    order = sorted(range(R), key=lambda i: (scores[i], i))
    return sorted(order[: R - f])


if __name__ == "__main__":
    sys.exit(main())
