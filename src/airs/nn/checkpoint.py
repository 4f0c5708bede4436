"""Checkpoints: a JSON manifest plus raw little-endian float64 buffers.

The manifest records each parameter's name, shape, and byte offset into
params.bin, alongside arbitrary hyperparameter metadata.
Round-trips are byte exact.  A save writes both files into a temporary
sibling directory, moves the previous checkpoint aside, moves the new one
into its place and only then deletes the old one, so a save that fails
leaves the previous checkpoint whole.

Format 3 is the only format: the manifest's `hyperparams` hold the agent
kind, the `nn` section and the `rl` section of the run that saved it, and
each LSTM's gates are stored fused, as `<cell>.W` of shape
(in + hidden, 4 * hidden) and `<cell>.b` of shape (4 * hidden,)
(`MogrifierLstm`'s layout).  The program has written nothing else since the
gates were fused; a manifest of any other format is rejected.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np

FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Raised for a checkpoint that is missing, unreadable or malformed, or that
    does not fit the policy or environment it is loaded into."""


def save_checkpoint(directory, named_arrays, hyperparams: dict):
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


def load_checkpoint(directory):
    """Returns (manifest, dict name -> float64 array) of a format-3 checkpoint.

    A parameter holding a nan or an infinity is rejected: no finite run saves
    one, and a policy built from it would fly nan positions."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        raw = (directory / "params.bin").read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {directory}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {directory} manifest is not JSON: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint {directory} has unsupported checkpoint format "
                              f"{version}; only format {FORMAT_VERSION} is read")
    arrays = {}
    try:
        for entry in manifest["params"]:
            start, nbytes = entry["offset"], entry["nbytes"]
            blob = raw[start : start + nbytes]
            if start < 0 or len(blob) != nbytes:
                raise CheckpointError(f"checkpoint {directory} params.bin has no bytes "
                                      f"[{start}, {start + nbytes}) for {entry['name']}")
            try:
                array = np.frombuffer(blob, dtype="<f8").reshape(entry["shape"])
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint {directory} parameter {entry['name']}: {exc}") from None
            if not np.isfinite(array).all():
                raise CheckpointError(f"checkpoint {directory} parameter {entry['name']} "
                                      f"holds a non-finite value")
            arrays[entry["name"]] = array.copy()
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {directory} manifest is missing {exc}") from None
    except TypeError as exc:  # params not a list of objects, or a byte range not integers
        raise CheckpointError(
            f"checkpoint {directory} manifest params are malformed: {exc}") from None
    return manifest, arrays
