"""Deterministic artifact files: CSV/JSON with fixed formatting and manifests.

Floats are written with 17 significant digits (round-trip exact); JSON keys
are sorted; manifests carry the package version and sha256 checksums of
every emitted file, and no timestamps, so identical configurations yield
byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["format_float", "write_csv", "write_json", "write_manifest", "read_manifests"]


def format_float(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.complexfloating,)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _row_format(types):
    """One %-format for a row of these cell types, or None for the per-cell path.

    ``%s`` renders ints and strings and ``%.17g`` floats exactly as the
    per-cell path does; complex cells, and any type not listed, keep it.
    """
    fields = []
    for t in types:
        if issubclass(t, (int, str)):
            fields.append("%s")
        elif issubclass(t, (float, np.floating, np.integer)):
            fields.append("%.17g")
        else:
            return None
    return ",".join(fields)


def write_csv(path: Path, header, rows) -> Path:
    """Write ``rows`` under ``header``; one format string serves each row shape."""
    path = Path(path)
    lines = [",".join(header)]
    formats = {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = _row_format(types)
        fmt = formats[types]
        if fmt is None:
            lines.append(",".join(format_float(v) if not isinstance(v, (int, str)) else str(v) for v in row))
        else:
            lines.append(fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path: Path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=1) + "\n")
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, parameters: dict, artifact_paths) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "parameters": _jsonable({k: parameters[k] for k in sorted(parameters)}),
        "version": __version__,
        "artifacts": {Path(p).name: _sha256(p) for p in artifact_paths},
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
