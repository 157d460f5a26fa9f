"""Run manifests.

Every file-producing command writes a JSON manifest next to its outputs
holding the fully resolved parameters (including the seed and every default
that applied), the tool version, and content hashes of the outputs.  The
argv holds every setting a command reads, seed included, so re-running it
at the same BLAS thread count reproduces the data files byte-identically.  The manifest does not record that count, and
the last bits of a law table's floats can change with it (N = 150, d = 10
differs between one and two threads); the tests pin the law CSV at N = 100,
whose bytes are the same at one to four threads.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import asdict, dataclass, field

from . import __version__
from .errors import InvalidParametersError

__all__ = ["RunManifest"]

MANIFEST_VERSION = 1


@dataclass
class RunManifest:
    """Complete reproduction record of one run."""

    command: str
    argv: list[str]
    params: dict
    outputs: dict[str, str] = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    tool_version: str = __version__
    manifest_version: int = MANIFEST_VERSION
    timestamp: str = ""

    def add_output(self, path: str) -> None:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.outputs[path] = digest

    def save(self, path: str) -> None:
        if not self.timestamp:
            self.timestamp = datetime.datetime.now(
                datetime.timezone.utc).isoformat()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidParametersError(
                f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidParametersError(f"{path}: manifest is not an object")
        if payload.get("manifest_version") != MANIFEST_VERSION:
            raise InvalidParametersError(
                f"{path}: unsupported manifest version "
                f"{payload.get('manifest_version')}")
        missing = [k for k in ("command", "argv", "params") if k not in payload]
        if missing:
            raise InvalidParametersError(
                f"{path}: manifest lacks {', '.join(missing)}")
        argv = payload["argv"]
        if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
            raise InvalidParametersError(f"{path}: argv is not a list of strings")
        for key in ("params", "outputs", "results"):
            if not isinstance(payload.get(key, {}), dict):
                raise InvalidParametersError(f"{path}: {key} is not an object")
        return cls(
            command=payload["command"],
            argv=argv,
            params=payload["params"],
            outputs=payload.get("outputs", {}),
            results=payload.get("results", {}),
            tool_version=payload.get("tool_version", "unknown"),
            timestamp=payload.get("timestamp", ""),
        )
