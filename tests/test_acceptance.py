"""Acceptance gate: one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured numbers.  Seeds are fixed constants chosen up
front; poisoning-defense margins were additionally spot-checked on
neighbouring seeds before being frozen.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest
from scipy import stats

from chainlearn.attacks import (
    COLLUSION_PEERS,
    COLLUSION_VERIFIERS,
    AdversaryConfig,
    STRATEGY_LABEL_FLIP,
    collusion_violation_probability,
)
from chainlearn.commitments import Witness, combine, commit, create_witness, slots, trusted_setup, verify_share
from chainlearn.config import DatasetSpec, ExperimentSpec
from chainlearn.experiments import (
    inversion_batching_experiment,
    run_fl_baseline,
    run_protocol_experiment,
)
from chainlearn.groups import get_backend
from chainlearn.krum import KrumConfig, max_tolerable_f, multi_krum_select
from chainlearn.ledger import Ledger
from chainlearn.quantize import QuantizedPoly, decode, encode, sum_polys
from chainlearn.sgd import TrainConfig
from chainlearn.stake import KEYSPACE, build_ring
from chainlearn.vss import ShareRecoveryError, recover_aggregate, sum_shares

from conftest import deal

SEED = 11
COLLUSION_SEED = 2026  # fixed up front; results were not used to pick it


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def experiment_spec(**over) -> ExperimentSpec:
    """The frozen desk-scale poisoning configuration."""
    base = dict(
        name="acceptance",
        number_of_nodes=50,
        total_iterations=50,
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
        seed=SEED,
    )
    base.update(over)
    return ExperimentSpec(**base)


# --- criterion 1: crypto invariant suite --------------------------------------


def test_criterion_1_crypto_invariants():
    """Homomorphism, witness completeness, tamper rejection (1000 randomized
    trials each), the d / d+1 share threshold and exact 35-update aggregation
    at d=25, all inside 60 seconds."""
    started = time.monotonic()
    backend = get_backend("exponent")
    order = backend.order
    pk25 = trusted_setup(backend, 25, b"acceptance-25")
    rng = random.Random(SEED)

    def rand_poly(pk, dim):
        return QuantizedPoly(tuple(rng.randrange(order) for _ in range(dim + 1)), order)

    # homomorphism, 1000 trials
    for _ in range(1000):
        a, b = rand_poly(pk25, 25), rand_poly(pk25, 25)
        assert combine(backend, [commit(pk25, a), commit(pk25, b)]) == commit(pk25, a.add(b))

    # witness completeness, 1000 trials
    pk8 = trusted_setup(backend, 8, b"acceptance-8")
    for _ in range(1000):
        phi = rand_poly(pk8, 8)
        z = rng.randrange(1, 10_000)
        assert verify_share(pk8, [z], [(commit(pk8, phi), create_witness(pk8, phi, [z]))])

    # tamper rejection, 1000 randomized trials
    rejected = 0
    for _ in range(1000):
        phi = rand_poly(pk8, 8)
        c = commit(pk8, phi)
        at = [rng.randrange(1, 10_000)]
        w = create_witness(pk8, phi, at)
        kind = rng.randrange(4)
        if kind == 0:
            w = Witness(w.value, ((w.evals[0] + rng.randrange(1, order)) % order,))
        elif kind == 1:
            w = Witness(backend.g1_add(w.value, backend.g1_mul(backend.g1, rng.randrange(1, order))), w.evals)
        elif kind == 2:
            c = combine(backend, [c, commit(pk8, rand_poly(pk8, 8))])
        else:
            at = [at[0] + rng.randrange(1, 50)]
        rejected += not verify_share(pk8, at, [(c, w)])
    assert rejected == 1000, f"{1000 - rejected} tampered shares slipped through"

    # same algebra on the real pairing backend, spot-checked
    pairing = get_backend("pairing")
    ppk = trusted_setup(pairing, 6, b"acceptance-pairing")
    prng = random.Random(SEED + 1)
    for _ in range(25):
        coeffs = tuple(prng.randrange(pairing.order) for _ in range(7))
        phi = QuantizedPoly(coeffs, pairing.order)
        other = QuantizedPoly(tuple(prng.randrange(pairing.order) for _ in range(7)), pairing.order)
        assert (
            combine(pairing, [commit(ppk, phi), commit(ppk, other)])
            == commit(ppk, phi.add(other))
        )
        at = [prng.randrange(1, 1000)]
        w = create_witness(ppk, phi, at)
        assert verify_share(ppk, at, [(commit(ppk, phi), w)])
        bad = Witness(w.value, ((w.evals[0] + 1) % pairing.order,))
        assert not verify_share(ppk, at, [(commit(ppk, phi), bad)])

    # share threshold at d=25: 25 points must fail, 26 suffice
    nrng = np.random.default_rng(SEED)
    update = encode(nrng.normal(size=25) * 0.1, 12345, order)
    c = commit(pk25, update)
    layout = slots(25, [0, 1, 2])
    bundles = deal(update, pk25, [0, 1, 2], dealer=0)
    shares = [s for agg, b in bundles.items() for s in zip(layout[agg], b.opening.evals)]
    with pytest.raises(ShareRecoveryError):
        recover_aggregate(shares[:25], pk25, c)
    assert recover_aggregate(shares[:26], pk25, c) == update

    # end-to-end exactness: 35 unit-norm updates at d=25
    updates = []
    for _ in range(35):
        v = nrng.normal(size=25)
        updates.append(encode(v / np.linalg.norm(v), int(nrng.integers(order)), order))
    per_agg = {a: [] for a in (0, 1, 2)}
    for i, q in enumerate(updates):
        for a, bundle in deal(q, pk25, [0, 1, 2], dealer=i).items():
            per_agg[a].append(bundle)
    layout = slots(25, (0, 1, 2))
    agg_shares = [s for a in layout for s in zip(layout[a], sum_shares(per_agg[a], backend))]
    combined = combine(backend, [commit(pk25, q) for q in updates])
    recovered = recover_aggregate(agg_shares, pk25, combined)
    assert recovered == sum_polys(updates)
    np.testing.assert_array_equal(decode(recovered), decode(sum_polys(updates)))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"crypto suite took {elapsed:.1f}s"
    report("1 (crypto invariants)", True, f"4000+ trials exact, threshold 25/26, {elapsed:.1f}s")


# --- criterion 2: Multi-KRUM oracle equivalence ---------------------------------


def brute_force_select(updates, R, f):
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


def test_criterion_2_krum_oracle_equivalence():
    """Selection matches an exhaustive implementation on 1000 random instances."""
    rng = random.Random(SEED)
    for case in range(1000):
        R = rng.randint(4, 8)
        f = rng.randint(0, max_tolerable_f(R))
        d = rng.randint(1, 5)
        X = [[rng.uniform(-10, 10) for _ in range(d)] for _ in range(R)]
        got = multi_krum_select(np.array(X), KrumConfig(R, f))
        want = brute_force_select(X, R, f)
        assert got == want, f"case {case}: R={R} f={f}"
    report("2 (Multi-KRUM oracle)", True, "1000/1000 instances match brute force")


# --- criteria 3-5: poisoning defense -------------------------------------------


@pytest.fixture(scope="module")
def poisoning_runs():
    started = time.monotonic()
    spec = experiment_spec()
    clean = run_fl_baseline(dataclasses.replace(spec, adversary=AdversaryConfig()))
    undefended = run_fl_baseline(spec)
    defended = run_protocol_experiment(spec)
    return clean, undefended, defended, time.monotonic() - started


def test_criterion_3_poisoning_defense(poisoning_runs):
    """50 peers, 30% label-flip poisoners, 50 rounds: the undefended baseline
    breaks while the protocol holds the attack under 0.15 at no accuracy cost."""
    clean, undefended, defended, elapsed = poisoning_runs
    undefended_max = max(undefended.metrics.series("attack_rate"))
    final_attack = defended.metrics.final("attack_rate")
    err_gap = abs(
        defended.metrics.final("validation_error") - clean.metrics.final("validation_error")
    )
    ok = undefended_max >= 0.5 and final_attack <= 0.15 and err_gap <= 0.03 and elapsed < 600
    report(
        "3 (poisoning defense)",
        ok,
        f"undefended max attack {undefended_max:.2f} (needs >=0.5), defended final "
        f"{final_attack:.3f} (needs <=0.15), error gap {err_gap:.4f} (needs <=0.03), "
        f"{elapsed:.0f}s",
    )
    assert undefended_max >= 0.5
    assert final_attack <= 0.15
    assert err_gap <= 0.03
    assert elapsed < 600


def test_criterion_4_sample_fraction_trend():
    """At 40% poisoners, collecting half the updates must leak substantially
    more attack than collecting 90%, by >= 0.2 over three seeds."""
    lows, highs = [], []
    for ds in range(3):
        spec40 = experiment_spec(
            seed=SEED + ds,
            adversary=AdversaryConfig(
                fraction=0.40, strategy=STRATEGY_LABEL_FLIP, src_label=1, dst_label=0
            ),
        )
        lows.append(
            run_protocol_experiment(dataclasses.replace(spec40, collect_fraction=0.5))
            .metrics.tail_mean("attack_rate")
        )
        highs.append(
            run_protocol_experiment(dataclasses.replace(spec40, collect_fraction=0.9))
            .metrics.tail_mean("attack_rate")
        )
    gap = float(np.mean(lows) - np.mean(highs))
    report(
        "4 (sample-fraction trend)",
        gap >= 0.2,
        f"attack at 50% collection {np.mean(lows):.3f} vs 90% {np.mean(highs):.3f}, "
        f"gap {gap:.3f} (needs >=0.2)",
    )
    assert gap >= 0.2


def test_criterion_5_noise_krum_interaction():
    """The filter must lose its grip at eps=0.5: attack(0.5) - attack(2) >= 0.2
    at 30% poisoners over three seeds."""
    noisy, normal = [], []
    for ds in range(3):
        spec = experiment_spec(seed=SEED + ds)
        normal.append(run_protocol_experiment(spec).metrics.tail_mean("attack_rate"))
        noisy.append(
            run_protocol_experiment(dataclasses.replace(spec, privacy_budget_epsilon=0.5))
            .metrics.tail_mean("attack_rate")
        )
    gap = float(np.mean(noisy) - np.mean(normal))
    report(
        "5 (noise/filter interaction)",
        gap >= 0.2,
        f"attack at eps=0.5 {np.mean(noisy):.3f} vs eps=2 {np.mean(normal):.3f}, "
        f"gap {gap:.3f} (needs >=0.2)",
    )
    assert gap >= 0.2


# --- criterion 6: collusion Monte Carlo ------------------------------------------


def exact_collusion_probability(stake_fraction_malicious: float, num_noisers: int) -> float:
    """Exact per-draw violation probability under the attack model of
    ``collusion_violation_probability``: round(fraction * N) colluders at
    uniform stake, the victim's noisers drawn without replacement from the
    other N - 1 peers and the verifiers from all N."""
    n, v = COLLUSION_PEERS, COLLUSION_VERIFIERS
    m = round(stake_fraction_malicious * n)
    all_noisers_collude = math.comb(m, num_noisers) / math.comb(n - 1, num_noisers)
    no_verifier_colludes = math.comb(n - m, v) / math.comb(n, v)
    return all_noisers_collude * (1 - no_verifier_colludes)


def test_criterion_6_collusion_monte_carlo():
    """10^4 draws per grid point with a pre-committed seed.

    Fixed before the test runs:
    - at every grid point the count must agree with the exact law under a
      two-sided exact binomial test at alpha = 1e-3 (a point of exact
      probability 0 must count 0);
    - the counts at (3 noisers, 10% stake) and (10 noisers, 50% stake) must
      each be at least an order of magnitude (10x) below the (3, 30%) count;
    - the (3, 30%) count is positive and the counts are monotone.
    """
    alpha = 1e-3
    contrast = 10
    trials = 10_000
    grid = {}
    for noisers in (3, 5, 10):
        for frac in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            p = collusion_violation_probability(frac, noisers, trials, COLLUSION_SEED)
            grid[(noisers, frac)] = round(p * trials)
    count_3_10 = grid[(3, 0.1)]
    count_10_50 = grid[(10, 0.5)]
    count_3_30 = grid[(3, 0.3)]

    exact = {(k, f): exact_collusion_probability(f, k) for k, f in grid}
    p_values = {}
    for point, count in grid.items():
        if exact[point] == 0:
            p_values[point] = 1.0 if count == 0 else 0.0
        else:
            p_values[point] = stats.binomtest(count, trials, exact[point]).pvalue
    off_law = sorted(point for point, pv in p_values.items() if pv < alpha)
    contrasted = contrast * count_3_10 <= count_3_30 and contrast * count_10_50 <= count_3_30
    monotone = all(
        grid[(k, a)] <= grid[(k, b)]
        for k in (3, 5, 10)
        for a, b in zip((0.0, 0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4, 0.5))
    ) and all(
        grid[(3, f)] >= grid[(5, f)] >= grid[(10, f)]
        for f in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    )

    ok = not off_law and contrasted and count_3_30 > 0 and monotone
    points = "; ".join(
        f"({k},{f:.0%})={grid[(k, f)]} vs {trials * exact[(k, f)]:.2f} p={p_values[(k, f)]:.3g}"
        for k, f in grid
    )
    report(
        "6 (collusion Monte Carlo)",
        ok,
        f"count vs expected per 10^4 draws, binomial p-value (alpha={alpha}): {points}; "
        f"contrast (3,30%)/(3,10%) and /(10,50%) >= {contrast}x: {contrasted}; "
        f"monotone={monotone}",
    )
    assert monotone, "violation counts must be monotone across the grid"
    assert count_3_30 > 0
    assert not off_law, f"counts off the exact law at alpha={alpha}: {off_law}"
    assert contrasted, (
        f"(3,10%)={count_3_10} and (10,50%)={count_10_50} must each be at least "
        f"{contrast}x below (3,30%)={count_3_30}"
    )


# --- criterion 7: churn -----------------------------------------------------------


@pytest.fixture(scope="module")
def churn_runs():
    spec = experiment_spec(
        name="churn",
        total_iterations=100,
        churn_per_minute=2.0,  # one join plus one fail per simulated minute
        adversary=AdversaryConfig(),
        seed=21,
    )
    churned = run_protocol_experiment(spec)
    calm = run_protocol_experiment(dataclasses.replace(spec, churn_per_minute=0.0))
    return churned, calm


def test_criterion_7_churn(churn_runs):
    churned, calm = churn_runs
    err_gap = abs(
        churned.metrics.final("validation_error") - calm.metrics.final("validation_error")
    )
    blocks = churned.metrics.final("blocks")
    forks = churned.metrics.final("forks")
    ok = err_gap <= 0.05 and forks == 0 and blocks >= 0.85 * 100
    report(
        "7 (churn)",
        ok,
        f"error gap {err_gap:.4f} (needs <=0.05), forks {forks} (needs 0), "
        f"ledger {blocks}/100 blocks (needs >=85)",
    )
    assert err_gap <= 0.05
    assert forks == 0
    assert blocks >= 85


# --- criterion 8: ledger integrity --------------------------------------------------


def test_criterion_8_ledger_integrity(poisoning_runs, churn_runs):
    """Every block of every acceptance run revalidates from genesis (the
    commitment-product identity included), replays deterministically, and the
    stake ring stays proportional by chi-square at 1e5 samples."""
    _, _, defended, _ = poisoning_runs
    churned, _ = churn_runs
    for run in (defended, churned):
        source = run.result.final_ledger
        replays = []
        for _ in range(2):
            replay = Ledger(source.genesis)
            for block in source.blocks:
                ok, reason = replay.append(block)
                assert ok, f"replay rejected block {block.iteration}: {reason}"
            replays.append(replay)
        assert replays[0].stake == replays[1].stake == source.stake
        assert replays[0].tip_hash() == source.tip_hash()
        np.testing.assert_array_equal(replays[0].state.weights, source.state.weights)

    # stake-proportional selection on the final (non-uniform) stake map
    stake = defended.result.final_ledger.stake
    ring = build_ring(stake)
    rng = np.random.default_rng(SEED)
    samples = 100_000
    counts = {p: 0 for p in stake}
    step = KEYSPACE // (1 << 63)
    for point in rng.integers(0, 1 << 63, size=samples):
        counts[ring.owner(int(point) * step)] += 1
    total = sum(stake.values())
    expected = [samples * stake[p] / total for p in sorted(stake)]
    observed = [counts[p] for p in sorted(stake)]
    pvalue = stats.chisquare(observed, expected).pvalue
    ok = pvalue > 0.01
    report(
        "8 (ledger integrity)",
        ok,
        f"2 chains replayed exactly, commitment identity on every block, "
        f"chi-square p={pvalue:.3f} (needs >0.01) at 1e5 ring samples",
    )
    assert pvalue > 0.01


# --- criterion 9: inversion batching trend --------------------------------------------


def test_criterion_9_inversion_batching_trend():
    results, _ = inversion_batching_experiment(batch_counts=(1, 5, 15, 35), seed=5)
    sims = [s for _, s in results]
    nonincreasing = all(a >= b - 0.02 for a, b in zip(sims, sims[1:]))
    drop = sims[0] - sims[-1]
    ok = nonincreasing and drop >= 0.1
    report(
        "9 (inversion batching trend)",
        ok,
        f"nearest-image cosine by batch {[(c, round(s, 3)) for c, s in results]}, "
        f"drop {drop:.3f} (needs >=0.1, non-increasing)",
    )
    assert nonincreasing
    assert drop >= 0.1
