import os

import numpy as np

from rmlab.rng import (
    MASK64,
    STREAM_ENTRIES,
    STREAM_OPNORM_START,
    STREAM_SIGMA_START,
    derive_key,
    derive_stream,
    derive_substream_seed,
    mix64,
    usable_cores,
)


def test_mix64_reference_vectors():
    # splitmix64 finalizer applied to the post-increment state
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1


def test_mix64_masks_to_64_bits():
    assert 0 <= mix64(2**64 - 1) <= MASK64
    assert mix64(2**64 + 5) == mix64(5)


def test_mix64_avalanche():
    # flipping one input bit flips roughly half the output bits
    flips = bin(mix64(12345) ^ mix64(12345 ^ 1)).count("1")
    assert 16 <= flips <= 48


def test_stream_purpose_constants():
    assert STREAM_ENTRIES == 0
    assert STREAM_OPNORM_START == 1
    assert STREAM_SIGMA_START == 2


def test_derive_key_distinct_per_index():
    keys = {derive_key(7, i) for i in range(6)}
    assert len(keys) == 6
    assert derive_key(7, 3) == derive_key(7, 3)
    assert derive_key(8, 3) != derive_key(7, 3)
    assert 0 <= derive_key(7, 3) < 1 << 128


def test_derive_key_word_chain():
    w0 = mix64(55 ^ mix64(9))
    assert derive_key(55, 9) == (mix64(w0) << 64) | w0


def test_derive_stream_reproducible_and_independent():
    a = derive_stream(123, STREAM_ENTRIES).standard_normal(32)
    b = derive_stream(123, STREAM_ENTRIES).standard_normal(32)
    c = derive_stream(123, STREAM_OPNORM_START).standard_normal(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_stream_is_philox():
    gen = derive_stream(0, 0)
    assert isinstance(gen, np.random.Generator)
    assert type(gen.bit_generator).__name__ == "Philox"


def test_derive_substream_seed_composition():
    s = derive_substream_seed(55, 9)
    assert s == mix64(55 ^ mix64(9))
    assert 0 <= s <= MASK64
    seen = {derive_substream_seed(55, i) for i in range(1000)}
    assert len(seen) == 1000


def test_usable_cores_counts_the_affinity_mask_else_all_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cores() == 3
    # macOS and Windows have no affinity call; cpu_count may return None
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1
