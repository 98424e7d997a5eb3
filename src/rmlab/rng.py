"""Deterministic random streams.

One fixed 64-bit generator for the whole package: Philox (counter-based),
keyed explicitly so that stream derivation is a documented mixing function
rather than an implementation detail of the numpy seeding machinery.
Reproducibility contract: identical (seed, index) gives bit-identical draws
within this package for a fixed numpy version.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

MASK64 = (1 << 64) - 1

# Reserved stream indices for per-seed substreams. 1 and 2 held the start
# vectors of the former iterative spectral solvers; they stay reserved so no
# new stream reuses them.
STREAM_ENTRIES = 0
STREAM_OPNORM_START = 1
STREAM_SIGMA_START = 2

RngStream = np.random.Generator


def mix64(z: int) -> int:
    """splitmix64 finalizer; the fixed 64-bit mixing function of the package."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_key(master_seed: int, index: int = 0) -> int:
    """128-bit Philox key from (master_seed, index).

    Two chained splitmix64 words, the first of them the row seed
    derive_substream_seed(master_seed, index); mix64 is a bijection, so
    distinct indices under one seed can never collide.
    """
    w0 = derive_substream_seed(master_seed, index)
    w1 = mix64(w0)
    return (w1 << 64) | w0


def derive_stream(master_seed: int, index: int = 0) -> RngStream:
    """Independent stream for trial `index` under `master_seed`."""
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, index)))


def derive_substream_seed(master_seed: int, index: int) -> int:
    """64-bit seed (not a stream) for labeling rows; re-derivable by anyone."""
    return mix64((master_seed & MASK64) ^ mix64(index & MASK64))


def usable_cores() -> int:
    """CPU cores this process may run on: its affinity mask where the OS has
    one, else os.cpu_count(). thread_map, the one thread pool (E1/E2/E3's
    trials, the calibration's Monte Carlo sets), starts at most this many."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn, items: list, order=None, pool_setup=nullcontext) -> list:
    """[fn(item) for item in items] on min(usable_cores(), len(items)) threads,
    submitted in the given order; results and the first item's error come
    back in item order. pool_setup() is a context entered around a pool (not
    for one thread); the pool's threads get no setup of their own."""
    threads = min(usable_cores(), len(items))
    if threads < 2:
        return [fn(item) for item in items]
    with pool_setup(), ThreadPoolExecutor(threads) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in order or range(len(items))}
        return [futures[i].result() for i in range(len(items))]
