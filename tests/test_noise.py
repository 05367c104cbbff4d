import math

import numpy as np
import pytest

from chainlearn.bootstrap import PeerSecrets
from chainlearn.commitments import commit, trusted_setup
from chainlearn.groups import get_backend
from chainlearn.noise import (
    build_noise_table,
    gaussian_sigma,
    generate_noise,
    mask_update,
    peer_noise,
)
from chainlearn.quantize import decode, encode

from conftest import tiny_config

BACKEND = get_backend("exponent")
MOD = BACKEND.order


def test_sigma_formula():
    # sqrt(2*ln(1.25/1e-5)) / 2
    expected = math.sqrt(2 * math.log(1.25e5)) / 2
    assert gaussian_sigma(2.0, 1e-5) == pytest.approx(expected)
    assert expected == pytest.approx(2.4224, abs=5e-4)


def test_sigma_vanishes_for_large_epsilon():
    assert gaussian_sigma(1e9, 1e-5) < 1e-8


def test_sigma_rejects_bad_params():
    with pytest.raises(ValueError):
        gaussian_sigma(0.0, 1e-5)
    with pytest.raises(ValueError):
        gaussian_sigma(2.0, 1.5)


def test_sample_mean_near_zero():
    nv = generate_noise(100_000, 2.0, 1e-5, 1, 1.0, b"peer", 1, MOD)
    sigma = gaussian_sigma(2.0, 1e-5)
    assert abs(nv.zeta.mean()) < 4 * sigma / math.sqrt(100_000)


def test_noise_deterministic_per_seed_and_iteration():
    a = generate_noise(16, 2.0, 1e-5, 8, 0.5, b"s", 3, MOD)
    b = generate_noise(16, 2.0, 1e-5, 8, 0.5, b"s", 3, MOD)
    c = generate_noise(16, 2.0, 1e-5, 8, 0.5, b"s", 4, MOD)
    assert np.array_equal(a.zeta, b.zeta)
    assert a.quantized == b.quantized
    assert not np.array_equal(a.zeta, c.zeta)


def test_table_dims_and_runtime_regeneration():
    pk = trusted_setup(BACKEND, 6, b"x")
    config = tiny_config(total_iterations=4)
    secrets = {pid: PeerSecrets(None, seed) for pid, seed in enumerate([b"a", b"b", b"c"])}
    table = build_noise_table(pk, config, secrets)
    assert set(table.commitments) == {0, 1, 2}
    assert all(len(row) == 4 for row in table.commitments.values())
    nv = peer_noise(config, 6, secrets[1], 3)
    assert commit(pk, nv.quantized).value == table.entry(1, 3).value
    # the recipe reads the privacy budget, batch and schedule from genesis
    train = config.train
    explicit = generate_noise(
        6, config.epsilon, config.delta, train.batch_size, train.eta_at(3), b"b", 3, MOD
    )
    assert nv.quantized == explicit.quantized


def test_zero_noise_adversary_representable():
    pk = trusted_setup(BACKEND, 6, b"x")
    secrets = {0: PeerSecrets(None, b"a"), 1: PeerSecrets(None, b"b", zero_noise=True)}
    table = build_noise_table(pk, tiny_config(total_iterations=2), secrets)
    assert table.entry(1, 1).value == BACKEND.g1_identity
    assert table.entry(0, 1).value != BACKEND.g1_identity


def test_table_entry_bounds():
    pk = trusted_setup(BACKEND, 4, b"x")
    table = build_noise_table(pk, tiny_config(total_iterations=2), {0: PeerSecrets(None, b"a")})
    with pytest.raises(KeyError):
        table.entry(9, 1)
    with pytest.raises(ValueError):
        table.entry(0, 3)


def test_mask_update_is_field_sum():
    rng = np.random.default_rng(0)
    upd = encode(rng.normal(size=6), 17, MOD)
    noises = [
        generate_noise(6, 2.0, 1e-5, 4, 0.5, bytes([i]), 1, MOD).quantized for i in range(2)
    ]
    masked = mask_update(upd, noises)
    expect = decode(upd) + sum(decode(n) for n in noises)
    np.testing.assert_array_equal(decode(masked), expect)
    assert masked.coeffs[0] == (upd.coeffs[0] + sum(n.coeffs[0] for n in noises)) % MOD


def test_mask_commitment_equality():
    """Verifier-side check: commit(masked) == commit(update) * prod commit(noise)."""
    pk = trusted_setup(BACKEND, 6, b"x")
    rng = np.random.default_rng(1)
    upd = encode(rng.normal(size=6) * 0.1, 12345, MOD)
    noises = [
        generate_noise(6, 2.0, 1e-5, 4, 0.5, bytes([i]), 1, MOD).quantized for i in range(3)
    ]
    masked = mask_update(upd, noises)
    lhs = commit(pk, masked).value
    rhs = commit(pk, upd).value
    for n in noises:
        rhs = BACKEND.g1_add(rhs, commit(pk, n).value)
    assert lhs == rhs


def test_mask_requires_noise():
    upd = encode([0.5], 0, MOD)
    with pytest.raises(ValueError):
        mask_update(upd, [])
