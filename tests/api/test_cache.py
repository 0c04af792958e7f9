"""Tests for the trained-suite disk cache (:mod:`repro.api.cache`)."""

import pickle
import re

import pytest

from repro.api import cache as cache_module
from repro.api.cache import (
    CACHE_VERSION,
    load_or_train_suite,
    suite_fingerprint,
    suite_path,
)


class TestFingerprint:
    def test_stable_within_a_process(self):
        assert suite_fingerprint() == suite_fingerprint()

    def test_cache_path_embeds_fingerprint(self, tmp_path):
        path = suite_path(tmp_path)
        assert path.parent == tmp_path
        assert suite_fingerprint()[:16] in path.name


class TestLoadOrTrain:
    def test_miss_trains_and_writes(self, tmp_path):
        suite = load_or_train_suite(cache_dir=tmp_path)
        assert suite.is_trained()
        assert suite_path(tmp_path).is_file()

    def test_hit_skips_training(self, tmp_path, monkeypatch):
        first = load_or_train_suite(cache_dir=tmp_path)

        def boom():
            raise AssertionError("cache hit must not retrain")

        monkeypatch.setattr(cache_module.SchedulerSuite, "ensure_trained",
                            lambda self, schemes=None: boom())
        second = load_or_train_suite(cache_dir=tmp_path)
        assert second.is_trained()
        # The cached artefacts are the trained ones, bit-for-bit.
        assert second.dataset.names() == first.dataset.names()
        assert second.dataset.families() == first.dataset.families()

    def test_no_cache_never_reads_or_writes(self, tmp_path):
        suite = load_or_train_suite(cache_dir=tmp_path, use_cache=False)
        assert suite.is_trained()
        assert not suite_path(tmp_path).exists()

    def test_corrupt_cache_falls_back_to_training(self, tmp_path):
        path = suite_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning,
                          match=rf"{re.escape(str(path))} \(UnpicklingError\)"):
            suite = load_or_train_suite(cache_dir=tmp_path)
        assert suite.is_trained()
        # The corrupt file was overwritten with a valid payload.
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        assert payload["version"] == CACHE_VERSION
        assert payload["fingerprint"] == suite_fingerprint()

    def test_truncated_cache_retrains(self, tmp_path, monkeypatch):
        load_or_train_suite(cache_dir=tmp_path)
        path = suite_path(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        retrained = []
        original = cache_module.SchedulerSuite.ensure_trained

        def spy(self, schemes=None):
            retrained.append(True)
            return original(self, schemes)

        monkeypatch.setattr(cache_module.SchedulerSuite, "ensure_trained",
                            spy)
        with pytest.warns(RuntimeWarning,
                          match=rf"{re.escape(str(path))} "
                                r"\((UnpicklingError|EOFError)\)"):
            suite = load_or_train_suite(cache_dir=tmp_path)
        assert suite.is_trained() and retrained == [True]
        assert path.read_bytes() != blob[:len(blob) // 2]

    def test_unexpected_load_error_propagates(self, tmp_path, monkeypatch):
        load_or_train_suite(cache_dir=tmp_path)

        def broken_load(handle):
            raise RuntimeError("not a cache problem")

        monkeypatch.setattr(cache_module.pickle, "load", broken_load)
        with pytest.raises(RuntimeError, match="not a cache problem"):
            load_or_train_suite(cache_dir=tmp_path)

    def test_stale_fingerprint_forces_retrain(self, tmp_path):
        load_or_train_suite(cache_dir=tmp_path)
        path = suite_path(tmp_path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        payload["fingerprint"] = "0" * 64
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        suite = load_or_train_suite(cache_dir=tmp_path)
        assert suite.is_trained()

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert suite_path().parent == tmp_path / "custom"

    def test_cached_suite_predicts_like_fresh_training(self, tmp_path):
        cached = load_or_train_suite(cache_dir=tmp_path)
        fresh = load_or_train_suite(cache_dir=tmp_path, use_cache=False)
        program = cached.dataset.names()[0]
        features = cached.dataset.example_for(program).features
        assert cached.moe.predict_family(features).family == \
            fresh.moe.predict_family(features).family
