import numpy as np
import pytest

from regg import spectral
from regg.graphs import Matching, MultiGraph, Permutation


@pytest.fixture(scope="session")
def dense_resolvent():
    """G(z) assembled from one ResolventView.grid call: for
    N <= EXHAUSTIVE_N the pair sample is every i < j."""
    def assemble(view, z):
        assert view.n <= view.EXHAUSTIVE_N
        diag, off = view.grid(np.array([complex(z)]))
        i, j = view._pair_sample
        assert i.size == view.n * (view.n - 1) // 2
        g = np.diag(diag[:, 0])
        g[i, j] = g[j, i] = off[:, 0]
        return g
    return assemble


class _Exports:
    """scipy's LAPACK extension as spectral.routine sees it, but for the
    symbols of `overrides`: each answers with the real symbol it names, or
    is missing where it names None."""

    def __init__(self, lib, overrides):
        self._lib, self._overrides, self._name = lib, overrides, lib._name

    def __getattr__(self, symbol):
        real = self._overrides.get(symbol, symbol)
        if real is None:
            raise AttributeError(symbol)
        return getattr(self._lib, real)


@pytest.fixture
def lapack_exports(monkeypatch):
    """lapack_exports(overrides) makes spectral._lapack return the real
    extension with `overrides` (see _Exports) applied; spectral.routine
    forgets what it resolved when the stub goes in and when the test
    ends."""
    lib = spectral._lapack()

    def install(overrides):
        monkeypatch.setattr(spectral, "_lapack",
                            lambda: _Exports(lib, overrides))
        spectral.routine.cache_clear()

    yield install
    spectral.routine.cache_clear()


#: each value type's unchecked constructor and the field it fills
_BUILT = ((MultiGraph, "codes"), (Matching, "pairing"),
          (Permutation, "mapping"))


def _checked(cls, name):
    """cls._built that also runs the validating cls(...) on copies of its
    arguments and asserts that both hold the same int64 array."""
    built = cls._built.__func__

    def check(klass, *args):
        want = getattr(cls(*(np.array(a) if isinstance(a, np.ndarray) else a
                             for a in args)), name)
        out = built(klass, *args)
        got = getattr(out, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), (
            f"{cls.__name__}._built was given {name} that {cls.__name__}(...) "
            f"reads as {want}: {got}")
        return out
    return classmethod(check)


@pytest.fixture(autouse=True)
def checked_builds(monkeypatch):
    """Every graph, matching and permutation the package builds unchecked
    in a test is also built by its validating constructor, which must
    accept it and agree on the array: sorted codes, pairing or mapping."""
    for cls, name in _BUILT:
        monkeypatch.setattr(cls, "_built", _checked(cls, name))
