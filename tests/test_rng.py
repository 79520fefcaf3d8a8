"""Counter-based stream layer: determinism, independence, and variate laws."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import lsalab
from lsalab.rng import (
    _block_uniforms,
    _inverse,
    _normals,
    _open01,
    _seed_uniforms,
    stream,
    uniform_open01,
)


class TestStream:
    def test_same_key_reproduces_bits(self):
        a = stream(42, 7).integers(0, 2**63, size=64)
        b = stream(42, 7).integers(0, 2**63, size=64)
        assert np.array_equal(a, b)

    def test_distinct_keys_give_distinct_sequences(self):
        base = stream(42, 7).integers(0, 2**63, size=64)
        assert not np.array_equal(base, stream(42, 8).integers(0, 2**63, size=64))
        assert not np.array_equal(base, stream(43, 7).integers(0, 2**63, size=64))

    def test_stream_state_is_not_shared(self):
        # Consuming one stream must not advance another.
        g1 = stream(5, 1)
        g2 = stream(5, 2)
        g1.integers(0, 2**63, size=1000)
        fresh = stream(5, 2).integers(0, 2**63, size=8)
        assert np.array_equal(g2.integers(0, 2**63, size=8), fresh)

    def test_key_range_validated(self):
        with pytest.raises(ValueError):
            stream(-1, 0)
        with pytest.raises(ValueError):
            stream(0, 2**64)
        # Boundary keys are fine.
        stream(2**64 - 1, 0)
        stream(0, 2**64 - 1)


class TestBlockUniforms:
    @pytest.mark.parametrize("seed,lo", [(0, 0), (42, 1000), (2**64 - 1, 2**64 - 4)])
    def test_rows_are_the_leading_words_of_each_stream(self, seed, lo):
        block = _block_uniforms(seed, lo, lo + 4, 9)
        assert block.shape == (4, 9)
        for i in range(4):
            assert np.array_equal(block[i], uniform_open01(stream(seed, lo + i), 9))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**64 - 3), rows=st.integers(1, 3),
        n_words=st.integers(0, 11), start=st.integers(0, 70), into=st.booleans(),
    )
    @example(seed=3, lo=0, rows=2, n_words=5, start=0, into=True)
    @example(seed=3, lo=0, rows=2, n_words=5, start=1, into=False)
    @example(seed=3, lo=0, rows=2, n_words=5, start=2, into=True)
    @example(seed=3, lo=0, rows=2, n_words=5, start=3, into=False)
    @example(seed=3, lo=0, rows=2, n_words=5, start=4, into=True)
    @example(seed=3, lo=0, rows=2, n_words=5, start=7, into=False)
    @example(seed=2**64 - 1, lo=2**64 - 3, rows=3, n_words=9, start=719, into=True)
    def test_rows_are_the_words_of_each_stream_from_an_offset(
        self, seed, lo, rows, n_words, start, into
    ):
        # row i is words [start, start + n_words) of stream(seed, lo + i), and
        # a given out, here a view of a larger buffer, is filled and returned
        buffer = np.full(rows * n_words + 3, np.nan)
        out = buffer[: rows * n_words].reshape(rows, n_words) if into else None
        block = _block_uniforms(seed, lo, lo + rows, n_words, start, out=out)
        assert block.shape == (rows, n_words)
        if into:
            assert block is out and np.isnan(buffer[rows * n_words :]).all()
        for i in range(rows):
            whole = uniform_open01(stream(seed, lo + i), start + n_words)
            assert block[i].tobytes() == whole[start:].tobytes()

    def test_seed_rows_are_the_leading_words_of_each_seeds_stream(self):
        seeds = [0, 5, 2**64 - 1, 17]
        block = _seed_uniforms(seeds, 9)
        assert block.shape == (4, 9)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, uniform_open01(stream(seed, 0), 9))
        with pytest.raises(ValueError):
            _seed_uniforms([3, 2**64], 4)

    def test_key_range_validated(self):
        for seed, lo, hi in [(-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (0, 2**64 - 1, 2**64 + 1),
                             (0, 3, 3)]:
            with pytest.raises(ValueError):
                _block_uniforms(seed, lo, hi, 4)


class TestUniformOpen01:
    @pytest.mark.parametrize("sizes", [(3, 1, 3), ((2, 5), 7, (1, 1)), (0, 4, (3, 0, 2))])
    def test_words_match_the_integers_draw(self, sizes):
        # the raw-word draw reads the same words as gen.integers over the full
        # uint64 range and leaves the generator in the same state, so draws
        # interleaved with it continue identically
        for stream_id in range(20):
            fast, ref = stream(11, stream_id), stream(11, stream_id)
            for size in sizes:
                words = ref.integers(0, 2**64, size=size, dtype=np.uint64)
                expected = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
                got = uniform_open01(fast, size)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
                assert fast.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    @pytest.mark.parametrize("sizes", [(3, 1, 3), ((2, 5), 7, (1, 1)), (0, 66, (3, 0, 2))])
    def test_generator_doubles_are_the_top_53_bits_of_each_word(self, sizes):
        # the draws read words through Generator.random, whose double must be
        # (word >> 11) * 2^-53 exactly: pinned word for word, with integers
        # and standard_normal draws interleaved on both generators
        for seed, stream_id in ((0, 0), (11, 3), (2**64 - 1, 2**64 - 1)):
            gen, raw = stream(seed, stream_id), stream(seed, stream_id)
            for size in sizes:
                words = raw.bit_generator.random_raw(size)
                expected = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
                got = gen.random(size)
                assert got.tobytes() == expected.tobytes()
                assert gen.integers(0, 10, 2).tolist() == raw.integers(0, 10, 2).tolist()
                assert gen.standard_normal(3).tobytes() == raw.standard_normal(3).tobytes()

    def test_strictly_inside_unit_interval(self):
        u = uniform_open01(stream(1, 0), 200_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_all_ones_word_decodes_to_a_finite_normal(self):
        # (2^53 - 1) + 0.5 rounds to 2^53, which would map to exactly 1.0
        # and decode to +inf; the extreme words stay inside (0, 1).  The
        # words reach uniform_open01 as Generator.random's doubles of them
        words = np.array([2**64 - 1, 0, 2**64 - 2**11 - 1], dtype=np.uint64)

        class Gen:
            def random(self, size):
                return (words[:size] >> np.uint64(11)).astype(np.float64) * 2.0**-53

        u = uniform_open01(Gen(), 3)
        assert u[0] == np.nextafter(1.0, 0.0)
        assert u[1] == 0.5 * 2.0**-53
        # the word below keeps its unclamped value
        assert u[2] == ((2.0**53 - 2.0) + 0.5) * 2.0**-53
        z = _normals(u)
        assert np.all(np.isfinite(z))
        assert z[0] > 8.0 and z[1] < -8.0

    def test_shape_and_mean(self):
        u = uniform_open01(stream(2, 0), (100, 50))
        assert u.shape == (100, 50)
        # mean 1/2, sd of the mean = 1/sqrt(12 N)
        assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12 * u.size)

    def test_uniform_law(self):
        u = uniform_open01(stream(3, 0), 50_000)
        d = stats.kstest(u, "uniform").statistic
        assert d < 1.63 / np.sqrt(u.size)  # 99% Kolmogorov quantile


class TestNormalInverseCdf:
    # the Gaussian decode: the inverse normal CDF of the open uniforms
    def test_gaussian_law(self):
        z = _normals(uniform_open01(stream(4, 0), 50_000))
        d = stats.kstest(z, "norm").statistic
        assert d < 1.63 / np.sqrt(z.size)

    def test_moments(self):
        z = _normals(uniform_open01(stream(5, 0), 200_000))
        n = z.size
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


# the largest open uniform, from the all-ones word
_TOP = 1.0 - 2.0**-54


def _searchsorted_index(u, weights):
    """Inversion of the table by ``searchsorted``, over the atoms of nonzero weight.

    Atom k takes [T[k + 1], T[k]) of (0, 1), T the top-down cumulative
    weights, so u counts how many T of the atoms below the first it is at or
    above, from the last atom up; the first atom takes the rest of the top.
    """
    keep = np.flatnonzero(weights)
    tail = np.cumsum(weights[keep][::-1])  # ascending, the last atom's first
    return keep[len(keep) - 1 - np.searchsorted(tail[:-1], u, side="right")]


def _boundaries(weights):
    """Every top-down cumulative weight, the float below each, and both ends of (0, 1)."""
    tail = np.cumsum(weights[::-1])[::-1]
    ends = [2.0**-54, 0.5, _TOP]
    return np.concatenate([tail, np.nextafter(tail, 0.0), ends]).clip(2.0**-54, _TOP)


class TestInverse:
    def test_two_atoms_compare_u_with_the_second_weight(self):
        u = uniform_open01(stream(6, 0), 100_000)
        for q in (0.75, 0.5, 0.3):
            s = _inverse(u, np.array([1.0 - q, q]))
            assert s.dtype == np.uint8
            assert np.array_equal(s, (u < q).view(np.uint8))
            assert abs(s.mean() - q) < 5.0 * np.sqrt(q * (1.0 - q) / s.size)

    def test_law_matches_weights(self):
        probs = np.array([0.2, 0.5, 0.3])
        idx = _inverse(uniform_open01(stream(8, 0), 100_000), probs)
        counts = np.bincount(idx, minlength=3) / idx.size
        for k in range(3):
            assert abs(counts[k] - probs[k]) < 5.0 * np.sqrt(probs[k] / idx.size)

    def test_atoms_of_weight_one_and_zero(self):
        u = np.concatenate([uniform_open01(stream(7, 0), 100), [2.0**-54, _TOP]])
        assert np.all(_inverse(u, np.array([0.0, 1.0])) == 1)
        assert np.all(_inverse(u, np.array([1.0, 0.0])) == 0)
        assert np.all(_inverse(u, np.array([0.0, 1.0, 0.0])) == 1)
        assert np.all(_inverse(u, np.array([1.0])) == 0)

    def test_weights_summing_below_one_never_decode_an_atom_of_weight_zero(self):
        # 0.7 + 0.2 + 0.1 rounds to 1 - 2^-53, below the largest open uniform
        weights = np.array([0.0, 0.1, 0.2, 0.7])
        assert np.cumsum(weights[::-1])[-1] < _TOP
        u = np.concatenate([uniform_open01(stream(9, 0), 10_000), _boundaries(weights)])
        idx = _inverse(u, weights)
        assert set(np.unique(idx)) == {1, 2, 3}
        assert _inverse(np.array([_TOP]), weights).tolist() == [1]
        # a rounded sum short of 1 leaves the rest of the top to the first atom
        idx = _inverse(u, np.array([0.1, 0.0, 0.8]))
        assert set(np.unique(idx)) == {0, 2}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=300
        ).filter(any),
        st.integers(0, 2**32 - 1),
    )
    def test_index_is_the_searchsorted_inversion(self, raw, seed):
        weights = np.array(raw) / sum(raw)
        u = np.concatenate([uniform_open01(stream(seed, 0), 500), _boundaries(weights)])
        idx = _inverse(u, weights)
        assert idx.dtype == np.min_scalar_type(weights.size - 1)
        assert np.array_equal(idx, _searchsorted_index(u, weights))
        assert np.all(weights[idx] > 0.0)


# Loads the ufuncs in a fresh interpreter (this one has scipy.special
# imported, so _special would return the package), decodes the uniforms in
# argv[2] into argv[3], then imports the real package; prints what it saw as
# JSON.  Mode "no_spec" makes the stand-in load fail, "preloaded" imports the
# package first.
_LOADER_PROBE = """
import importlib.util, json, sys
import numpy as np
import scipy
from lsalab import rng

mode, words, draws = sys.argv[1:]
if mode == "no_spec":
    importlib.util.find_spec = lambda name, package=None: None
elif mode == "preloaded":
    import scipy.special
mod = rng._special()
seen = {
    "name": mod.__name__,
    "package_loaded": "scipy.special" in sys.modules,
    "in_scipy": "special" in vars(scipy),
}
np.save(draws, rng._normals(np.load(words)))
import scipy.special
seen["same_ufuncs"] = mod.ndtri is scipy.special.ndtri and mod.ndtr is scipy.special.ndtr
seen["cached"] = rng._special() is mod
seen["package_is_real"] = vars(scipy)["special"] is sys.modules["scipy.special"]
seen["logsumexp"] = float(scipy.special.logsumexp([0.0, 0.0]))
print(json.dumps(seen))
"""


class TestSpecialLoader:
    @staticmethod
    def probe(tmp_path, mode):
        # the extreme words (0, 1 and the all-ones word among them) and
        # a stream block, about a quarter of which takes ndtri's tail branch
        edge = np.array([0, 1, 2**11, 2**52, 2**63, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64)
        u = np.concatenate(
            [
                _open01((edge >> np.uint64(11)).astype(np.float64) * 2.0**-53),
                _block_uniforms(3, 0, 4, 512).ravel(),
            ]
        )
        tail = np.exp(-2.0)
        assert np.sum(u < tail) > 100 and np.sum(u > 1.0 - tail) > 100
        words, draws = tmp_path / "u.npy", tmp_path / "z.npy"
        np.save(words, u)
        src = str(Path(lsalab.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _LOADER_PROBE, mode, str(words), str(draws)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
        )
        seen = json.loads(out.stdout.strip().splitlines()[-1])
        assert np.load(draws).tobytes() == scipy.special.ndtri(u).tobytes()
        assert seen["same_ufuncs"] and seen["cached"] and seen["package_is_real"]
        assert seen["logsumexp"] == float(np.log(2.0))
        return seen

    def test_loads_the_packages_ufuncs_without_the_package(self, tmp_path):
        # fails too if the installed scipy takes the fallback
        seen = self.probe(tmp_path, "alone")
        assert seen["name"] == "scipy.special._ufuncs"
        assert not seen["package_loaded"]
        assert not seen["in_scipy"]

    @pytest.mark.parametrize("mode", ["no_spec", "preloaded"])
    def test_falls_back_to_the_package(self, tmp_path, mode):
        seen = self.probe(tmp_path, mode)
        assert seen["name"] == "scipy.special"
        assert seen["package_loaded"] and seen["in_scipy"]
