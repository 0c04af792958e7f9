"""Disk cache for the trained scheduler suite.

Offline training (feature synthesis, footprint profiling, memory-function
fitting, mixture-of-experts training) is deterministic for a given
training configuration, so repeat runs can skip it entirely: the suite
is pickled under ``.cache/`` together with a format version and a
fingerprint of everything the training outcome depends on — the training
benchmark specifications, the profiling input-size grid and the profiling
seed.  Any change to those invalidates the fingerprint and forces a fresh
training run; ``use_cache=False`` bypasses the cache in both directions.

:class:`repro.api.Session` consults this cache automatically whenever a
plan's schemes need trained artefacts its suite does not yet have.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from pathlib import Path

from repro.api.suite import SchedulerSuite
from repro.core.training import (
    DEFAULT_TRAINING_SEED,
    default_training_input_sizes_gb,
)
from repro.workloads.suites import TRAINING_BENCHMARKS

__all__ = ["CACHE_VERSION", "default_cache_dir", "suite_fingerprint",
           "suite_path", "load_or_train_suite"]

#: Bump when the pickle payload layout or training pipeline changes shape.
CACHE_VERSION = 1

#: What loading a truncated, corrupt or stale cache file raises: bad or
#: cut-off pickle streams, unreadable files, classes or modules that no
#: longer exist, garbled values fed to constructors, and payloads missing
#: their keys.  Anything else is a bug and propagates.
_UNREADABLE_CACHE = (pickle.UnpicklingError, EOFError, OSError,
                     AttributeError, KeyError, ImportError, ValueError,
                     TypeError)


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.cache/`` in the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".cache"))


def suite_fingerprint() -> str:
    """Hash of every input the trained artefacts depend on.

    Covers the full repr of the training benchmark specifications (name,
    memory behaviour, rates, ...), the offline profiling grid and the
    profiling seed — a change to any of them must retrain.
    """
    digest = hashlib.sha256()
    digest.update(f"v{CACHE_VERSION}".encode())
    for spec in TRAINING_BENCHMARKS:
        digest.update(repr(spec).encode())
    digest.update(default_training_input_sizes_gb().tobytes())
    digest.update(str(DEFAULT_TRAINING_SEED).encode())
    return digest.hexdigest()


def suite_path(cache_dir: str | Path | None = None) -> Path:
    """Where the current training configuration's suite pickle lives."""
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / f"scheduler_suite-{suite_fingerprint()[:16]}.pkl"


def load_or_train_suite(cache_dir: str | Path | None = None,
                        use_cache: bool = True) -> SchedulerSuite:
    """Return a fully trained suite, from cache when possible.

    On a cache miss (or with ``use_cache=False``) the suite is trained in
    process; with caching enabled the result is then pickled for the next
    run.  Stale cache files are ignored and overwritten; a corrupt one
    is reported with a :class:`RuntimeWarning` naming the file and the
    error, then retrained and overwritten likewise — never fatal.
    """
    path = suite_path(cache_dir)
    fingerprint = suite_fingerprint()
    if use_cache and path.is_file():
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
            if (payload.get("version") == CACHE_VERSION
                    and payload.get("fingerprint") == fingerprint):
                return SchedulerSuite(dataset=payload["dataset"],
                                      moe=payload["moe"])
        except _UNREADABLE_CACHE as error:
            warnings.warn(f"unreadable suite cache {path} "
                          f"({type(error).__name__}); retraining",
                          RuntimeWarning, stacklevel=2)

    suite = SchedulerSuite()
    suite.ensure_trained()
    if use_cache:
        _write_atomic(path, {
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "dataset": suite.dataset,
            "moe": suite.moe,
        })
    return suite


def _write_atomic(path: Path, payload: dict) -> None:
    """Write the pickle via a temp file + rename so readers never see a
    half-written cache; failures (read-only dirs, full disk) are ignored —
    the cache is an optimisation, not a requirement."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        pass
