import ast
import pathlib

import numpy as np
import pytest

from regg.errors import InvalidParametersError
from regg.rng import stream


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


#: names that build a generator or its state, besides a call of Generator
_BUILDERS = {"SeedSequence", "Philox", "default_rng"}


def _builds_generators(tree) -> bool:
    """Whether a module names SeedSequence, Philox or default_rng, or calls
    Generator; annotating an argument as np.random.Generator does not
    count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "Generator":
                return True
        if (getattr(node, "attr", None) in _BUILDERS
                or getattr(node, "id", None) in _BUILDERS
                or any(alias.name in _BUILDERS
                       for alias in getattr(node, "names", ()))):
            return True
    return False


def test_only_rng_builds_generators():
    # every stream the package draws from comes from rng.stream, so that
    # the independence of distinct (seed, path) holds for all of them
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    builders = sorted(path.relative_to(src).as_posix()
                      for path in src.rglob("*.py")
                      if _builds_generators(ast.parse(path.read_text("utf-8"))))
    assert builders == ["regg/rng.py"]
