"""Checkpoints: a JSON manifest plus raw little-endian float64 buffers.

The manifest records each parameter's name, shape, and byte offset into
params.bin, alongside step count and arbitrary hyperparameter metadata.
Round-trips are byte exact.  A save writes both files into a temporary
sibling directory and then moves it onto the target, so a save that fails
leaves the previous checkpoint whole.

Format 2 stores each LSTM's gate weights stacked, as `<cell>.Wx`, `<cell>.Wh`
and `<cell>.b`.  Format 1 stored one array per gate (`<cell>.Wx_i`, ...);
`load_checkpoint` still reads it and stacks the gates.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np

from .layers import MogrifierLstm

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Raised for a checkpoint that is missing, unreadable or malformed, or that
    does not fit the policy or environment it is loaded into."""


def save_checkpoint(directory, named_arrays, step: int, hyperparams: dict):
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    blobs = []
    offset = 0
    for name, array in named_arrays:
        raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
        entries.append(
            {"name": name, "shape": list(np.shape(array)), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "step": step,
        "hyperparams": hyperparams,
        "params": entries,
    }
    staging = directory.with_name(f".{directory.name}.tmp")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        (staging / "params.bin").write_bytes(b"".join(blobs))
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        if directory.exists():
            shutil.rmtree(directory)
        os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _stack_v1_gates(arrays: dict) -> dict:
    """Format 1's per-gate LSTM arrays stacked into format 2's entries."""
    for name in [n for n in arrays if n.endswith(".Wx_i")]:
        cell = name[: -len(".Wx_i")]
        for kind in ("Wx", "Wh", "b"):
            parts = []
            for gate in MogrifierLstm.GATES:
                key = f"{cell}.{kind}_{gate}"
                if key not in arrays:
                    raise CheckpointError(f"checkpoint is missing parameter {key}")
                parts.append(arrays.pop(key))
            arrays[f"{cell}.{kind}"] = np.stack(parts)
    return arrays


def load_checkpoint(directory):
    """Returns (manifest, dict name -> float64 array); reads formats 1 and 2."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        raw = (directory / "params.bin").read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {directory}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {directory} manifest is not JSON: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"unsupported checkpoint format {version}")
    arrays = {}
    try:
        for entry in manifest["params"]:
            start = entry["offset"]
            blob = raw[start : start + entry["nbytes"]]
            if len(blob) != entry["nbytes"]:
                raise CheckpointError(f"checkpoint {directory} params.bin is cut short")
            arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8").reshape(entry["shape"]).copy()
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {directory} manifest is missing {exc}") from None
    if version == 1:
        arrays = _stack_v1_gates(arrays)
    return manifest, arrays
