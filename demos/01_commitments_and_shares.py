#!/usr/bin/env python3
"""Walk through the commitment scheme: commit to an update, open point sets
with one witness each, combine commitments homomorphically and rebuild an
aggregate from secret shares."""

import numpy as np

from chainlearn import (
    combine,
    commit,
    create_witness,
    decode,
    deal_shares,
    encode,
    get_backend,
    recover_aggregate,
    sum_shares,
    trusted_setup,
    verify_share,
)
from chainlearn.commitments import slots
from chainlearn.ledger import CommitmentEntry

# The "pairing" backend is the real thing (supersingular curve, Tate pairing);
# swap in "exponent" for instant arithmetic while prototyping.
backend = get_backend("pairing")
dim = 6
pk = trusted_setup(backend, dim, seed=b"demo-ceremony")
print(f"backend={backend.name}, key supports degree {pk.degree}")

rng = np.random.default_rng(0)
update = rng.normal(size=dim) * 0.2
blinding = int(rng.integers(1 << 60))
poly = encode(update, blinding, backend.order)
c = commit(pk, poly)
print("committed to a", dim, "dimensional update; commitment bytes:",
      backend.g1_to_bytes(c)[:8].hex(), "...")

# open the polynomial at a point set and check the pairing equation
w = create_witness(pk, poly, [3, 5])
print("opening at {3, 5} verifies:", verify_share(pk, [3, 5], [(c, w)]))

# a forged evaluation is caught
from chainlearn.commitments import Witness
forged = Witness(w.value, ((w.evals[0] + 1) % backend.order, w.evals[1]))
print("forged evaluation verifies:", verify_share(pk, [3, 5], [(c, forged)]))

# homomorphism: the product of two commitments commits to the summed update
other = encode(rng.normal(size=dim) * 0.2, 7, backend.order)
lhs = combine(backend, [c, commit(pk, other)])
print("product equals commitment of the sum:",
      lhs == commit(pk, poly.add(other)))

# secret-share three updates to two aggregators and rebuild their sum
updates = [encode(rng.normal(size=dim) * 0.1, int(rng.integers(100)), backend.order)
           for _ in range(3)]
commitments = [commit(pk, q) for q in updates]
layout = slots(dim, [0, 1])  # aggregator -> its share points
per_agg = {0: [], 1: []}
for i, (q, cq) in enumerate(zip(updates, commitments)):
    entry = CommitmentEntry(i, cq)  # its block entry; the verifier sign-offs are left out here
    for agg, bundle in deal_shares(q, pk, layout, entry, ()).items():
        per_agg[agg].append(bundle)
# each aggregator sums its values in slot order; recovery pairs them with its points
shares = [s for agg in layout for s in zip(layout[agg], sum_shares(per_agg[agg], backend))]
combined = combine(backend, commitments)
recovered = recover_aggregate(shares, pk, combined)
print("recovered aggregate matches the direct sum:",
      np.allclose(decode(recovered), sum(decode(q) for q in updates)))
