"""Deterministic artifact files: CSV/JSON with fixed formatting and manifests.

A CSV holds one 2-d float table, every cell written as ``%.17g`` (17
significant digits, round-trip exact; integral values such as mode indices
print without a decimal point).  JSON is ``json.dumps`` with sorted keys;
complex numbers become ``{"re": ..., "im": ...}`` and numpy scalars and
arrays their Python values.  Manifests carry the package version and sha256
checksums of every emitted file, and no timestamps, so identical
configurations yield byte-identical artifacts.  Each writer returns an
:class:`Artifact`, its path carrying the digest of the bytes it wrote, so
the manifest reads no file back.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["Artifact", "write_text", "write_csv", "write_json", "write_manifest", "read_manifests"]


class Artifact(type(Path())):  # Path itself cannot be subclassed before Python 3.12
    """The path of a file just written; ``sha256`` is the hex digest of the bytes written to it."""

    sha256: str


def write_text(path: Path, text: str) -> Artifact:
    """Write ``text`` as UTF-8, making the parent directory, and hash the same bytes."""
    data = text.encode()
    path = Artifact(path)
    try:
        path.write_bytes(data)
    except FileNotFoundError:  # the first file written into a directory makes it
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    path.sha256 = hashlib.sha256(data).hexdigest()
    return path


def write_csv(path: Path, header, table) -> Artifact:
    """Write the 2-d float ``table`` under ``header``, one column per name."""
    table = np.asarray(table)
    if table.dtype.kind != "f" or table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"need a float table of {len(header)} columns, got {table.dtype} of shape {table.shape}")
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(row) for row in table.tolist()]
    return write_text(path, "\n".join(lines) + "\n")


def _json_default(obj):
    """What ``json`` cannot encode itself: complex numbers, numpy scalars and arrays."""
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, obj) -> Artifact:
    return write_text(path, json.dumps(obj, sort_keys=True, indent=1, default=_json_default) + "\n")


def write_manifest(out_dir: Path, command: str, parameters: dict, artifacts) -> Artifact:
    """Write ``manifest.json`` listing the digest each of ``artifacts`` was written with."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "artifacts": {a.name: a.sha256 for a in artifacts},
    }
    return write_json(out_dir / "manifest.json", manifest)


class MissingManifestError(FileNotFoundError):
    pass


def read_manifests(root: Path):
    root = Path(root)
    found = sorted(root.rglob("manifest.json"))
    if not found:
        raise MissingManifestError(f"no manifest.json found under {root}")
    out = []
    for p in found:
        doc = json.loads(p.read_text())
        doc["_dir"] = str(p.parent)
        out.append(doc)
    return out
