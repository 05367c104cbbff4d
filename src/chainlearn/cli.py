"""Command-line entry point.

Subcommands:
  run             execute a named experiment from a JSON config
  verify-chain    revalidate a persisted chain file block by block
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path


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


if __name__ == "__main__":
    sys.exit(main())
