"""Peer-to-peer SGD coordinated by a stake-weighted ledger.

Public surface, by layer:

* crypto: group backends, polynomial commitments, deterministic signatures
* encoding: fixed-point quantization between updates and field polynomials
* learning: models, local update rule, datasets
* roles: stake ring, committee draws, pre-committed noise, update filtering
* consensus: secret-shared aggregation, blocks, the ledger
* harness: the peer state machine, deterministic simulator, attacks,
  experiment runners and the CLI
"""

from .attacks import (
    AdversaryConfig,
    attack_rate,
    collusion_violation_probability,
    invert_gradient,
    poison_dataset,
)
from .commitments import CommitPK, Witness, combine, commit, create_witness, trusted_setup, verify_share
from .committees import committee_seed, draw_committee, draw_noisers, noiser_seed, verify_vrf
from .config import DatasetSpec, ExperimentSpec, load_spec
from .datasets import Dataset, make_dataset, partition
from .groups import get_backend
from .krum import KrumConfig, krum_sample_size, krum_scores, max_tolerable_f, multi_krum_select
from .ledger import Block, GenesisBlock, Ledger, ProtocolConfig, load_chain, save_chain
from .models import LogisticModel, SoftmaxModel, make_model, validation_error
from .noise import build_noise_table, gaussian_sigma, generate_noise
from .quantize import QuantizedPoly, decode, encode
from .sgd import TrainConfig, compute_local_update
from .simnet import Simulation
from .stake import StakeRing, build_ring, update_stake
from .vss import ShareBundle, deal_shares, recover_aggregate, sum_shares

__version__ = "0.1.0"
