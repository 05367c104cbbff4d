import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainlearn.bootstrap import PeerSecrets
from chainlearn.commitments import commit, trusted_setup
from chainlearn.encoding import seed_words
from chainlearn.groups import get_backend
from chainlearn.noise import (
    build_noise_table,
    gaussian_sigma,
    generate_noise,
)
from chainlearn.quantize import decode, encode, sum_polys
from chainlearn.sgd import TrainConfig

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
    """No Gaussian step exists at epsilon 0 or delta 1.5; the config that
    names the step refuses both."""
    with pytest.raises(ValueError, match="epsilon must be positive, got 0.0"):
        tiny_config(epsilon=0.0)
    with pytest.raises(ValueError, match=re.escape("delta must lie in (0, 1), got 1.5")):
        tiny_config(delta=1.5)


CONFIG = tiny_config()


def noise(seed: bytes, iteration: int = 1, dim: int = 6, config=CONFIG):
    return generate_noise(config, dim, PeerSecrets(None, seed), iteration)


def test_sample_mean_near_zero():
    config = tiny_config(train=TrainConfig(eta0=1.0, eta_decay=0.0, weight_decay=0.0, batch_size=1))
    zeta = decode(noise(b"peer", dim=100_000, config=config))
    sigma = gaussian_sigma(2.0, 1e-5)
    assert abs(zeta.mean()) < 4 * sigma / math.sqrt(100_000)


def test_noise_deterministic_per_seed_and_iteration():
    a, b, c = noise(b"s", 3, 16), noise(b"s", 3, 16), noise(b"s", 4, 16)
    assert a == b
    assert not np.array_equal(decode(a), decode(c))


def test_table_dims_and_runtime_regeneration():
    pk = trusted_setup(BACKEND, 6, b"x")
    config = tiny_config(total_iterations=4)
    secrets = {pid: PeerSecrets(None, seed) for pid, seed in enumerate([b"a", b"b", b"c"])}
    table = build_noise_table(pk, config, secrets)
    assert set(table) == {0, 1, 2}
    assert all(len(row) == 4 for row in table.values())
    assert commit(pk, generate_noise(config, 6, secrets[1], 3)) == table[1][2]


def test_zero_noise_adversary_representable():
    pk = trusted_setup(BACKEND, 6, b"x")
    secrets = {0: PeerSecrets(None, b"a"), 1: PeerSecrets(None, b"b", zero_noise=True)}
    table = build_noise_table(pk, tiny_config(total_iterations=2), secrets)
    assert table[1][0] == BACKEND.g1_identity
    assert table[0][0] != BACKEND.g1_identity


def test_mask_update_is_field_sum():
    rng = np.random.default_rng(0)
    upd = encode(rng.normal(size=6), 17, MOD)
    noises = [noise(bytes([i])) for i in range(2)]
    masked = sum_polys([upd, *noises])
    expect = decode(upd) + sum(decode(n) for n in noises)
    np.testing.assert_array_equal(decode(masked), expect)
    assert masked.coeffs[0] == (upd.coeffs[0] + sum(n.coeffs[0] for n in noises)) % MOD


def test_mask_commitment_equality():
    """Verifier-side check: commit(masked) == commit(update) * prod commit(noise)."""
    pk = trusted_setup(BACKEND, 6, b"x")
    rng = np.random.default_rng(1)
    upd = encode(rng.normal(size=6) * 0.1, 12345, MOD)
    noises = [noise(bytes([i])) for i in range(3)]
    masked = sum_polys([upd, *noises])
    lhs = commit(pk, masked)
    rhs = commit(pk, upd)
    for n in noises:
        rhs = BACKEND.g1_add(rhs, commit(pk, n))
    assert lhs == rhs


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 + 3, 2**255 - 19])
def test_generator_bytes_are_the_next_raw_outputs_little_endian(seed):
    """``generate_noise`` reads its blinding as the stream's next 5 raw
    64-bit outputs, written little-endian: after a ``normal`` draw on a
    fresh ``PCG64`` stream, those are the 40 bytes ``Generator.bytes(40)``
    returns (10 ``uint32`` halves, low half first)."""
    streams = []
    for _ in range(2):
        bits = np.random.PCG64(seed)
        np.random.Generator(bits).normal(0.0, 2.0, size=(3, 5))
        streams.append(bits)
    assert np.random.Generator(streams[0]).bytes(40) == streams[1].random_raw(5).astype("<u8").tobytes()


def _same_state(seed: int) -> None:
    rng = np.random.default_rng
    assert rng(seed_words(seed)).bit_generator.state == rng(seed).bit_generator.state
    assert np.random.PCG64(seed_words(seed)).state == np.random.PCG64(seed).state


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**256 - 1])
def test_seed_words_start_the_state_the_int_does(seed):
    """A generator seeded with an int's words starts where one seeded with
    the int does, at the word boundaries and at a hash's full width."""
    _same_state(seed)


@given(seed=st.integers(min_value=0, max_value=2**300))
def test_seed_words_property(seed):
    _same_state(seed)


def test_seed_words_refuse_a_negative_seed():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        seed_words(-1)
