"""The generators' differential contract, pinned across seeds.

``phased_trace`` and ``iter_phased`` share one block loop that inlines
``random.Random``'s rejection draw, and ``seeded_writes`` binds
``random`` as a local.  The per-reference code they replaced is kept as
the oracle in ``tests/workload_reference.py``.  For 100 seeds on a grid
of shapes, ``phased_trace``, a fully consumed ``iter_phased`` and the
oracle must produce the same references and leave a caller-owned
``random.Random`` in the same state.  A subclass that overrides only
``random()`` draws its integers another way, so it must take the
per-reference fallback and still match the oracle.  Because the block
loop leans on CPython's ``_randbelow_with_getrandbits``, this suite is
what fails if a Python release changes that draw.
"""

from __future__ import annotations

import random
import re
from itertools import islice

import pytest

from repro.serve.replay import seeded_writes
from repro.workload.reference import _PHASED_BLOCK, iter_phased, phased_trace
from tests import workload_reference as oracle

SEEDS = range(100)
LENGTH = 40
PHASE_LENGTHS = (1, 13, LENGTH + 1)   # 13 leaves a one-reference last phase
LOCALITIES = (0.0, 0.9, 1.0)


def grid():
    """Pages 1, 7 and the powers of two 256 and 1,024, where about half
    the out-of-set draws are rejected; the working set at both ends."""
    for pages in (1, 7, 256, 1024):
        for working_set in sorted({1, pages}):
            for phase_length in PHASE_LENGTHS:
                if working_set >= 256 and phase_length == 1:
                    # A full-size sample per reference costs the oracle
                    # ~0.1 s a seed; phase_length 13 already resamples
                    # every set size here.
                    continue
                for locality in LOCALITIES:
                    yield dict(pages=pages, length=LENGTH,
                               working_set=working_set,
                               phase_length=phase_length, locality=locality)


GRID = list(grid())


def shape_id(shape):
    return ("p{pages}-ws{working_set}-ph{phase_length}-loc{locality}"
            .format(**shape))


def assert_matches_oracle(shape, make_rng, seed):
    expected_rng, trace_rng, stream_rng = (make_rng(seed) for _ in range(3))
    expected = oracle.phased_trace(rng=expected_rng, **shape)
    context = f"seed {seed}, {shape}"
    assert phased_trace(rng=trace_rng, **shape) == expected, context
    assert list(iter_phased(rng=stream_rng, **shape)) == expected, context
    assert trace_rng.getstate() == expected_rng.getstate(), context
    assert stream_rng.getstate() == expected_rng.getstate(), context


class RandomOnly(random.Random):
    """Overrides ``random()`` alone, so ``Random.__init_subclass__``
    gives it ``_randbelow_without_getrandbits``."""

    def random(self):
        return super().random()


class TestPhasedMatchesOracle:
    @pytest.mark.parametrize("shape", GRID, ids=shape_id)
    def test_generators_match_and_leave_the_same_rng_state(self, shape):
        for seed in SEEDS:
            assert_matches_oracle(shape, random.Random, seed)

    # ``seed=`` only builds the ``random.Random`` the test above passes
    # in, so a quarter of the grid covers that path.
    @pytest.mark.parametrize("shape", GRID[::4], ids=shape_id)
    def test_seed_path_matches(self, shape):
        for seed in SEEDS:
            expected = oracle.phased_trace(seed=seed, **shape)
            assert phased_trace(seed=seed, **shape) == expected, seed
            assert list(iter_phased(seed=seed, **shape)) == expected, seed

    # The fallback runs the oracle's own per-reference calls, so a fifth
    # of the grid covers it.
    @pytest.mark.parametrize("shape", GRID[::5], ids=shape_id)
    def test_subclass_takes_the_fallback(self, shape):
        for seed in SEEDS:
            assert_matches_oracle(shape, RandomOnly, seed)

    def test_subclass_draws_differ_from_plain_random(self):
        """The fallback matters: the subclass's integer draw is not the
        inlined one, so the two streams part at the first draw."""
        shape = dict(pages=7, length=LENGTH, working_set=3)
        assert RandomOnly._randbelow is not random.Random._randbelow
        assert (oracle.phased_trace(rng=RandomOnly(1), **shape)
                != oracle.phased_trace(rng=random.Random(1), **shape))

    @pytest.mark.parametrize("phase_length", [1_000, 50_000, 3 * _PHASED_BLOCK])
    def test_phases_cross_block_boundaries(self, phase_length):
        shape = dict(pages=1024, length=2 * _PHASED_BLOCK + 123,
                     working_set=24, phase_length=phase_length,
                     locality=0.9)
        for seed in range(3):
            assert_matches_oracle(shape, random.Random, seed)

    def test_partial_consumption_yields_the_oracle_prefix(self):
        shape = dict(pages=256, length=_PHASED_BLOCK + 10, working_set=8,
                     phase_length=1_000)
        expected = list(islice(oracle.iter_phased(seed=5, **shape), 100))
        assert list(islice(iter_phased(seed=5, **shape), 100)) == expected

    @pytest.mark.parametrize("bad", [
        dict(pages=0), dict(length=0), dict(working_set=0),
        dict(working_set=11), dict(phase_length=0), dict(locality=-0.1),
        dict(locality=1.5),
    ], ids=lambda bad: "-".join(f"{k}{v}" for k, v in bad.items()))
    def test_bad_arguments_raise_the_same_errors(self, bad):
        args = {**dict(pages=10, length=100, working_set=4), **bad}
        with pytest.raises(ValueError) as expected:
            oracle.phased_trace(**args)
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=message):
            phased_trace(**args)
        with pytest.raises(ValueError, match=message):
            iter_phased(**args)     # at call time, before any draw


class TestSeededWritesMatchOracle:
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 1.0])
    def test_write_flags_match(self, fraction):
        for seed in SEEDS:
            length = 1 + seed * 7
            assert seeded_writes(length, fraction=fraction, seed=seed) == (
                oracle.seeded_writes(length, fraction=fraction, seed=seed)
            ), seed

    def test_bad_fraction_raises_the_same_error(self):
        with pytest.raises(ValueError) as expected:
            oracle.seeded_writes(10, fraction=1.5)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            seeded_writes(10, fraction=1.5)
