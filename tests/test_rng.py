import numpy as np
import pytest

from regg.errors import InvalidParametersError
from regg.rng import SEED_ENV_VAR, resolve_seed, stream


def test_equal_paths_bit_identical():
    a = stream(42, 3).integers(0, 2**32, size=100)
    b = stream(42, 3).integers(0, 2**32, size=100)
    assert np.array_equal(a, b)


def test_distinct_paths_diverge():
    a = stream(42, 3).integers(0, 2**32, size=100)
    b = stream(42, 4).integers(0, 2**32, size=100)
    c = stream(43, 3).integers(0, 2**32, size=100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_must_fit_64_bits():
    with pytest.raises(InvalidParametersError):
        stream(1 << 64)
    with pytest.raises(InvalidParametersError):
        stream(-1)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert resolve_seed(5) == 5
    assert resolve_seed(None) == 99
    monkeypatch.delenv(SEED_ENV_VAR)
    assert resolve_seed(None) == 0


def test_resolve_seed_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(InvalidParametersError):
        resolve_seed(None)
