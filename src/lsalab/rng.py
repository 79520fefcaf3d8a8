"""Counter-based splittable random streams.

Every Monte Carlo consumer in the package owns a *stream*: an independent,
reproducible random sequence identified by ``(seed, stream_id)``.  Streams are
built on numpy's Philox bit generator, which is counter-based: the key is the
64-bit pair ``(seed, stream_id)``, so any stream can be reconstructed from its
identifier alone, with no generator-to-generator state hand-off.  Two
consequences the rest of the package relies on:

* the draws of stream k never depend on how many other streams exist, which
  worker executed them, or in which order streams were consumed;
* re-running with the same seed reproduces every stream bit-for-bit.

Batch consumers read many streams at once through a block draw: one Philox
whose state is reset to key ``(seed, j)`` for each row j, so row j holds
exactly the words of ``stream(seed, j)`` from a word offset ``start`` on and
a block is the same no matter how the stream ids are split into blocks; a
block of streams ``(seed_i, 0)`` is read the same way with the seed varying.
Philox makes four words per counter value, and the counter is incremented
before each four are made, so a fresh stream's word w comes from counter
``w // 4 + 1``: a row starting at word ``start`` is reset to counter
``start // 4`` and discards ``start % 4`` words.  Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3" (SC 2011) describe such keyed counter
streams.

Uniform variates are produced directly from the raw 64-bit counters as
``((word >> 11) + 0.5) * 2^-53``, clamped below 1 (the all-ones word would
round to 1.0), so every uniform lies strictly inside (0, 1).  The words are
read and filled in C by ``Generator.random``, whose double is exactly
``(word >> 11) * 2^-53``; adding ``2^-54`` then gives the map's bits.
Gaussian variates apply the inverse normal CDF (``scipy.special.ndtri``, the
Cephes rational minimax approximation of the probit function, accurate to
~1e-16 relative) to those uniforms.  This avoids rejection-based samplers whose
consumption pattern can change between library versions, so the mapping from
counters to variates is a fixed pure function; the private ``_normals`` and
``_inverse`` maps apply it to uniforms already drawn.  ``_inverse`` decodes a
finite law by inverting its ``(atoms, weights)`` table (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. III): atom k takes the
interval of u between the top-down cumulative weights of atoms k + 1 and k,
so a two-point law is the comparison ``u < weights[1]`` and an atom of
weight 0 is never decoded.

The package needs only two compiled ufuncs of ``scipy.special``: ``ndtri``
here and ``ndtr`` for clt's KS row.  ``import scipy.special`` costs about
0.3 s and 13 MiB, nearly all of it in the package ``__init__``'s array-API
backend layer (which imports ``numpy.f2py`` and ``numpy.testing``), so
``_special`` loads the extension module ``scipy.special._ufuncs`` alone,
under a bare stand-in for its package that is removed again, in about
0.02-0.03 s.  Those are the very ufunc objects a later real ``import
scipy.special`` exposes, so every draw is the same; should the extension not
import that way, ``_special`` falls back to the full package, and
``tests/test_rng.py`` fails if the installed scipy takes that path.  A run
that draws no Gaussian never loads scipy at all.
``lsalab.experiments.validate`` calls ``_special`` for an experiment that
decodes Gaussians (or, in clt, evaluates the normal CDF), so the load comes
before the run and pool workers inherit it.
"""

from __future__ import annotations

import importlib.util
import sys
import types
from functools import cache

import numpy as np
from numpy.random import Generator, Philox

_U64 = np.uint64
_TWO54_INV = 2.0**-54
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _check_u64(value: int, name: str) -> None:
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")


def stream(seed: int, stream_id: int) -> Generator:
    """Independent generator for the (seed, stream_id) counter stream."""
    _check_u64(seed, "seed")
    _check_u64(stream_id, "stream_id")
    key = np.array([seed, stream_id], dtype=_U64)
    return Generator(Philox(key=key))


def _block_uniforms(
    seed: int, lo: int, hi: int, n_words: int, start: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Open uniforms of streams lo..hi-1, shape (hi - lo, n_words).

    Row i holds words ``[start, start + n_words)`` of ``stream(seed, lo + i)``,
    mapped as :func:`uniform_open01` maps them, written into ``out`` if given.
    """
    _check_u64(seed, "seed")
    if not 0 <= lo < hi <= 2**64:
        raise ValueError(f"stream ids must satisfy 0 <= lo < hi <= 2**64, got [{lo}, {hi})")
    return _keyed_uniforms([seed, lo], 1, range(lo, hi), n_words, start, out)


def _seed_uniforms(seeds: list[int], n_words: int) -> np.ndarray:
    """Open uniforms, one row per seed: row i starts ``stream(seeds[i], 0)``."""
    for seed in seeds:
        _check_u64(seed, "seed")
    return _keyed_uniforms([seeds[0], 0], 0, seeds, n_words)


def _keyed_uniforms(
    key: list[int], slot: int, values, n_words: int, start: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Open uniforms, one row per entry of ``values``, into ``out`` if given.

    Row i holds words ``[start, start + n_words)`` of the stream whose key
    is ``key`` with ``key[slot]`` (0 the seed, 1 the stream id) set to
    ``values[i]``.  One Philox serves every row: its state is reset to the
    row's key at counter ``start // 4`` with no buffered words, and
    ``start % 4`` words are discarded.
    """
    if out is None:
        out = np.empty((len(values), n_words))
    bitgen = Philox(key=np.array(key, dtype=_U64))
    gen = Generator(bitgen)
    # a state of plain ints resets the generator about three times faster
    # than one of uint64 arrays
    fresh = bitgen.state
    key = list(key)
    fresh["state"] = {"counter": [start // 4, 0, 0, 0], "key": key}
    fresh["buffer"] = fresh["buffer"].tolist()
    skip = start % 4
    for i, value in enumerate(values):
        key[slot] = value
        bitgen.state = fresh
        if skip:
            bitgen.random_raw(skip)
        gen.random(out=out[i])
    return _open01(out)


def uniform_open01(gen: Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """Uniform draws strictly inside (0, 1), one 64-bit counter word each."""
    return _open01(gen.random(size))


def _open01(top: np.ndarray) -> np.ndarray:
    """(word >> 11) * 2^-53 + 2^-54 in place, clamped below 1.

    ``top`` holds Philox's doubles, ``(word >> 11) * 2^-53`` exactly, so
    the sum is the rounding of ``((word >> 11) + 0.5) * 2^-53``: scaling by
    a power of two is exact.  For the all-ones word that rounds to 1.0,
    which is clamped to the largest float below 1.  No other word reaches
    that float, so no other value moves.
    """
    top += _TWO54_INV
    np.minimum(top, _BELOW_ONE, out=top)
    return top


@cache
def _special():
    """A module holding scipy.special's ufuncs ``ndtri`` and ``ndtr``.

    That is ``scipy.special._ufuncs``, loaded on the first call without
    running the package ``__init__``, or the ``scipy.special`` package itself
    if it is already imported or the extension does not load alone.
    """
    if "scipy.special" not in sys.modules:
        try:
            return _ufuncs_alone()
        except ImportError:
            pass
    import scipy.special

    return scipy.special


def _ufuncs_alone():
    """Import ``scipy.special._ufuncs`` under a bare stand-in package.

    The stand-in carries only the real package's ``__path__``, so the
    extension and the sibling extensions it imports load as they would under
    the real package, and stay in ``sys.modules`` for it to reuse.  It is
    removed again whatever happens, from ``sys.modules`` and from ``scipy``'s
    namespace; the latter is read through ``vars``, since ``getattr(scipy,
    "special")`` would import the real package.
    """
    import scipy

    spec = importlib.util.find_spec("scipy.special")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy.special is not a package on the path")
    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = list(spec.submodule_search_locations)
    sys.modules["scipy.special"] = stand_in
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is stand_in:
            del sys.modules["scipy.special"]
        if vars(scipy).get("special") is stand_in:
            del scipy.special


def _normals(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return _special().ndtri(u, out=out)


def _inverse(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # The index of the atom whose interval holds u, by inversion of the
    # (atoms, weights) table: atom k takes [T[k + 1], T[k]), where T[k] is the
    # top-down cumulative weight weights[k] + ... + weights[-1] and T[K] = 0,
    # so the index counts the T[k], k >= 1, above u, and for two atoms it is
    # u < weights[1].  An atom of weight 0 has T[k] == T[k + 1], an empty
    # interval; the atoms up to the first of nonzero weight count as above
    # every u, so that the first takes what rounding leaves of the top of (0, 1).
    tail = np.append(np.cumsum(weights[::-1])[::-1], 0.0)
    tail[: np.flatnonzero(weights)[0] + 1] = np.inf
    # the count starts in the index itself, in the smallest type that holds
    # it, and every later comparison reuses one mask: no array of u's size
    # is held but those two
    index = np.less(u, tail[1], out=np.empty(u.shape, np.min_scalar_type(weights.size - 1)))
    above = None
    for t in tail[2:-1]:
        above = np.less(u, t, out=above)
        index += above.view(np.uint8)
    return index
