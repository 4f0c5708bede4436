"""Checkpoints: a JSON manifest plus raw little-endian float64 buffers.

The manifest records each parameter's name, shape, and byte offset into
params.bin, alongside step count and arbitrary hyperparameter metadata.
Round-trips are byte exact.  A save writes both files into a temporary
sibling directory, moves the previous checkpoint aside, moves the new one
into its place and only then deletes the old one, so a save that fails
leaves the previous checkpoint whole.

Format 3 stores each LSTM's gates fused, as `<cell>.W` of shape
(in + hidden, 4 * hidden) and `<cell>.b` of shape (4 * hidden,)
(`MogrifierLstm`'s layout).  Format 2 stored them stacked gate-major
(`<cell>.Wx` (4, in, hidden), `<cell>.Wh` (4, hidden, hidden), `<cell>.b`
(4, hidden)) and format 1 one array per gate (`<cell>.Wx_i`, ...);
`load_checkpoint` still reads both and fuses their gates.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np

from .layers import MogrifierLstm

FORMAT_VERSION = 3


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
    aside = directory.with_name(f".{directory.name}.old")
    for stale in (staging, aside):
        if stale.exists():
            shutil.rmtree(stale)
    staging.mkdir()
    try:
        (staging / "params.bin").write_bytes(b"".join(blobs))
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        if directory.exists():
            os.replace(directory, aside)
        try:
            os.replace(staging, directory)
        except BaseException:
            if aside.exists():
                os.replace(aside, directory)
            raise
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)


def _fuse_gates(arrays: dict, version: int) -> dict:
    """Format 1's per-gate or format 2's stacked LSTM arrays as format 3's fused ones.

    A gate count or shape that does not fit the policy is left for
    `ActorCritic.load_state` to reject.
    """
    first = ".Wx_i" if version == 1 else ".Wx"
    for name in [n for n in arrays if n.endswith(first)]:
        cell = name[: -len(first)]
        gates = {}
        for kind in ("Wx", "Wh", "b"):
            keys = ([f"{cell}.{kind}_{gate}" for gate in MogrifierLstm.GATES] if version == 1
                    else [f"{cell}.{kind}"])
            for key in keys:
                if key not in arrays:
                    raise CheckpointError(f"checkpoint is missing parameter {key}")
            stacks = [arrays.pop(key) for key in keys]
            gates[kind] = stacks if version == 1 else list(stacks[0])
        try:
            arrays[f"{cell}.W"] = np.block([gates["Wx"], gates["Wh"]])
            arrays[f"{cell}.b"] = np.concatenate(gates["b"])
        except ValueError as exc:
            raise CheckpointError(f"checkpoint gates of {cell} do not fit together: {exc}") from None
    return arrays


def load_checkpoint(directory):
    """Returns (manifest, dict name -> float64 array); reads formats 1 to 3."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        raw = (directory / "params.bin").read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {directory}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {directory} manifest is not JSON: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version not in (1, 2, FORMAT_VERSION):
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
    if version != FORMAT_VERSION:
        arrays = _fuse_gates(arrays, version)
    return manifest, arrays
