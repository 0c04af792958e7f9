"""Memory estimators: the pluggable prediction component of the dispatcher.

Every co-location scheme in the paper reduces to the same dispatcher loop
("find a node with spare memory and CPU, size an executor, give it data")
driven by a different source of memory estimates.  This module provides
those sources:

* :class:`OracleEstimator` — the ideal predictor (ground-truth footprints,
  zero profiling cost);
* :class:`MoEEstimator` — the paper's approach: KNN expert selection plus
  two-point calibration of the chosen memory function;
* :class:`UnifiedFamilyEstimator` — a single fixed function family used for
  every application (the unified-model baselines of Figure 9);
* :class:`ANNUnifiedEstimator` — a single neural network regressor trained
  to map (features, data size) to footprint (the ANN baseline of Figure 9);
* :class:`QuasarEstimator` — a Quasar-like classification scheme: the
  application is classified against the training programs and the matched
  program's memory profile is used directly, with no per-application
  calibration (Section 5.4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.memory_functions import MemoryFunction, make_memory_function
from repro.core.moe import MixtureOfExperts
from repro.core.training import TrainingDataset
from repro.ml.knn import KNeighborsClassifier
from repro.ml.mlp import MLPRegressor
from repro.ml.scaler import MinMaxScaler
from repro.profiling.profiler import Profiler
from repro.scheduling.base import ProfilingCost
from repro.spark.application import SparkApplication
from repro.workloads.benchmark import BenchmarkSpec

__all__ = [
    "MemoryEstimator",
    "OracleEstimator",
    "MoEEstimator",
    "UnifiedFamilyEstimator",
    "ANNUnifiedEstimator",
    "QuasarEstimator",
]


class MemoryEstimator(ABC):
    """Per-application memory estimation used by the dispatcher."""

    @abstractmethod
    def prepare(self, app: SparkApplication, spec: BenchmarkSpec) -> ProfilingCost:
        """Profile the application (if needed) and return the profiling cost."""

    @abstractmethod
    def footprint_gb(self, app_name: str, data_gb: float) -> float:
        """Estimated executor footprint for ``data_gb`` of cached input."""

    @abstractmethod
    def cpu_load(self, app_name: str) -> float:
        """Estimated CPU demand of the application's executors."""

    def footprint_batch(self, app_names: list[str],
                        data_gbs: np.ndarray) -> np.ndarray:
        """Footprints for many ``(app, data share)`` queries in one call.

        The dispatcher issues a single ``footprint_batch`` per scheduling
        epoch covering every waiting application, instead of one
        ``footprint_gb`` call per application per node scan.  Overrides
        may vectorize internally, but MUST return values bit-identical to
        per-row ``footprint_gb`` calls: the batched results fill the same
        footprint memo the dispatcher's per-row fallback fills, and any
        ulp of drift would make a placement depend on which call got
        there first.  (Notably, pushing a multi-row matrix through a
        BLAS-backed matmul is *not* bit-stable against the equivalent
        row-at-a-time products — see ``ANNUnifiedEstimator``.)
        """
        return np.fromiter(
            (self.footprint_gb(name, float(data))
             for name, data in zip(app_names, data_gbs)),
            dtype=np.float64, count=len(app_names))

    def data_for_budget_gb(self, app_name: str, budget_gb: float,
                           max_gb: float = 1e6) -> float:
        """Largest data share whose estimated footprint fits ``budget_gb``.

        Implemented generically by binary search because every estimator's
        footprint estimate is monotone non-decreasing in the data size.
        """
        if budget_gb <= 0:
            return 0.0
        if self.footprint_gb(app_name, 1e-6) > budget_gb:
            return 0.0
        lo, hi = 0.0, max_gb
        if self.footprint_gb(app_name, hi) <= budget_gb:
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.footprint_gb(app_name, mid) <= budget_gb:
                lo = mid
            else:
                hi = mid
        return lo


class OracleEstimator(MemoryEstimator):
    """The ideal predictor of Section 5.4: exact footprints, free of charge."""

    def __init__(self) -> None:
        self._specs: dict[str, BenchmarkSpec] = {}

    def prepare(self, app, spec):
        self._specs[app.name] = spec
        return ProfilingCost()

    def footprint_gb(self, app_name, data_gb):
        return self._specs[app_name].true_footprint_gb(data_gb)

    def cpu_load(self, app_name):
        return self._specs[app_name].cpu_load

    def data_for_budget_gb(self, app_name, budget_gb, max_gb=1e6):
        return self._specs[app_name].data_for_budget_gb(budget_gb, max_gb=max_gb)


class MoEEstimator(MemoryEstimator):
    """The paper's approach: expert selection plus two-point calibration.

    Parameters
    ----------
    moe:
        A trained :class:`~repro.core.moe.MixtureOfExperts`; one is trained
        on the paper's 16 training programs when omitted.
    profiler:
        Profiler used for the runtime feature-extraction and calibration
        runs.
    leave_one_out:
        Honour the evaluation protocol of Section 5.2: when the incoming
        application is itself a training program (or has an equivalent
        implementation in the training set), use a predictor retrained
        without it.
    """

    def __init__(self, moe: MixtureOfExperts | None = None,
                 profiler: Profiler | None = None,
                 leave_one_out: bool = True) -> None:
        self.moe = moe or MixtureOfExperts.train()
        self.profiler = profiler or Profiler(seed=17)
        self.leave_one_out = leave_one_out
        self._predictions: dict[str, object] = {}
        self._loo_cache: dict[str, MixtureOfExperts] = {}

    def _predictor_for(self, spec: BenchmarkSpec) -> MixtureOfExperts:
        if not self.leave_one_out:
            return self.moe
        if spec.name not in self._loo_cache:
            self._loo_cache[spec.name] = self.moe.for_target(spec)
        return self._loo_cache[spec.name]

    def prepare(self, app, spec):
        report = self.profiler.profile(app.name, spec, app.input_gb)
        prediction = self._predictor_for(spec).predict_from_report(report)
        self._predictions[app.name] = prediction
        return ProfilingCost(feature_extraction_min=report.feature_extraction_min,
                             calibration_min=report.calibration_min)

    def footprint_gb(self, app_name, data_gb):
        return self._predictions[app_name].footprint_gb(data_gb)

    def cpu_load(self, app_name):
        return self._predictions[app_name].cpu_load

    def data_for_budget_gb(self, app_name, budget_gb, max_gb=1e6):
        return self._predictions[app_name].function.data_for_budget_gb(
            budget_gb, max_gb=max_gb
        )


class UnifiedFamilyEstimator(MemoryEstimator):
    """A single fixed function family calibrated per application.

    This is the unified-model baseline of Figure 9: the same modelling
    technique (linear/power-law, exponential, or Napierian logarithmic) is
    applied to every application regardless of its actual behaviour; only
    the two coefficients are calibrated from the profiling runs.
    """

    def __init__(self, family: str, profiler: Profiler | None = None) -> None:
        self.family = family
        # Validate the family name eagerly.
        make_memory_function(family)
        self.profiler = profiler or Profiler(seed=23)
        self._functions: dict[str, MemoryFunction] = {}
        self._cpu: dict[str, float] = {}

    def prepare(self, app, spec):
        report = self.profiler.profile(app.name, spec, app.input_gb)
        function = make_memory_function(self.family,
                                        min_footprint_gb=0.25)
        first, second = report.calibration
        function.model.calibrate(first.sample_gb, first.footprint_gb,
                                 second.sample_gb, second.footprint_gb)
        self._functions[app.name] = function
        self._cpu[app.name] = report.cpu_load
        return ProfilingCost(feature_extraction_min=report.feature_extraction_min,
                             calibration_min=report.calibration_min)

    def footprint_gb(self, app_name, data_gb):
        return float(self._functions[app_name].predict_footprint_gb(data_gb))

    def cpu_load(self, app_name):
        return self._cpu[app_name]

    def data_for_budget_gb(self, app_name, budget_gb, max_gb=1e6):
        return self._functions[app_name].data_for_budget_gb(budget_gb, max_gb=max_gb)


class ANNUnifiedEstimator(MemoryEstimator):
    """A single neural-network regressor shared by every application.

    The network maps the 22 raw features plus the (log) data size to a
    footprint, and is trained offline on the same training programs used by
    the mixture-of-experts approach (Figure 9's ANN baseline).
    """

    def __init__(self, dataset: TrainingDataset,
                 profiler: Profiler | None = None,
                 hidden_units: int = 24, n_iter: int = 3000,
                 seed: int = 0) -> None:
        self.profiler = profiler or Profiler(seed=29)
        self._scaler = MinMaxScaler()
        self._model = MLPRegressor(hidden_units=hidden_units, n_iter=n_iter,
                                   seed=seed)
        self._features: dict[str, np.ndarray] = {}
        self._cpu: dict[str, float] = {}
        self._train(dataset)

    def _train(self, dataset: TrainingDataset) -> None:
        rows, targets = [], []
        for example in dataset.examples:
            features = example.features.as_array()
            for size, footprint in zip(example.profile_sizes_gb,
                                       example.profile_footprints_gb):
                rows.append(np.concatenate([features, [np.log(size)]]))
                targets.append(footprint)
        matrix = self._scaler.fit_transform(np.vstack(rows))
        self._model.fit(matrix, np.asarray(targets))

    def prepare(self, app, spec):
        report = self.profiler.profile(app.name, spec, app.input_gb)
        self._features[app.name] = report.features.as_array()
        self._cpu[app.name] = report.cpu_load
        # The ANN needs no calibration runs, only the feature-extraction run.
        return ProfilingCost(feature_extraction_min=report.feature_extraction_min)

    def footprint_gb(self, app_name, data_gb):
        features = self._features[app_name]
        row = np.concatenate([features, [np.log(max(float(data_gb), 1e-6))]])
        scaled = self._scaler.transform(row.reshape(1, -1))
        return float(max(self._model.predict(scaled)[0], 0.25))

    def footprint_batch(self, app_names, data_gbs):
        """Batched inference with the feature pipeline amortized.

        Row assembly and min-max scaling are elementwise, so running them
        on the stacked query matrix is bit-identical to per-row calls.
        The network forward pass stays row-at-a-time on purpose: BLAS
        dispatches different kernels (and accumulation orders) for
        matrix-matrix versus row-vector products, so predicting the whole
        batch in one matmul drifts from per-row calls by an ulp — and an
        ulp in a footprint forks a placement.
        """
        if len(app_names) == 0:
            return np.zeros(0)
        rows = np.vstack([
            np.concatenate([self._features[name],
                            [np.log(max(float(data), 1e-6))]])
            for name, data in zip(app_names, data_gbs)])
        scaled = self._scaler.transform(rows)
        return np.fromiter(
            (max(float(self._model.predict(scaled[i:i + 1])[0]), 0.25)
             for i in range(scaled.shape[0])),
            dtype=np.float64, count=scaled.shape[0])

    def cpu_load(self, app_name):
        return self._cpu[app_name]


class QuasarEstimator(MemoryEstimator):
    """Quasar-like classification-based estimation (Section 5.4).

    Quasar classifies an incoming application against previously seen
    workloads and derives its resource allocation from the matched
    profiles.  Following the paper's re-implementation, the classifier is
    built from the same training programs as the mixture-of-experts
    approach; the key difference is that the matched training program's
    memory profile is used *as is* — there is no per-application,
    per-dataset calibration — so the estimate carries the full
    program-to-program variation as error.
    """

    #: Quasar assigns resources from a small set of discrete allocation
    #: classes rather than sizing a container to an arbitrary number of
    #: bytes; estimates are rounded up to the next class boundary (half a
    #: node on the paper's 64 GB machines).
    ALLOCATION_QUANTUM_GB = 32.0

    def __init__(self, dataset: TrainingDataset,
                 profiler: Profiler | None = None,
                 allocation_quantum_gb: float | None = None) -> None:
        if len(dataset) == 0:
            raise ValueError("QuasarEstimator needs a non-empty training dataset")
        self.profiler = profiler or Profiler(seed=31)
        self.dataset = dataset
        self.allocation_quantum_gb = (
            self.ALLOCATION_QUANTUM_GB if allocation_quantum_gb is None
            else allocation_quantum_gb
        )
        if self.allocation_quantum_gb <= 0:
            raise ValueError("allocation_quantum_gb must be positive")
        self._scaler = MinMaxScaler()
        matrix = self._scaler.fit_transform(dataset.feature_matrix())
        self._knn = KNeighborsClassifier(n_neighbors=1)
        self._knn.fit(matrix, np.asarray(dataset.names()))
        self._matched: dict[str, MemoryFunction] = {}
        self._cpu: dict[str, float] = {}

    def prepare(self, app, spec):
        report = self.profiler.profile(app.name, spec, app.input_gb)
        scaled = self._scaler.transform(report.features.as_array().reshape(1, -1))
        matched_program = str(self._knn.predict(scaled)[0])
        example = self.dataset.example_for(matched_program)
        self._matched[app.name] = example.fitted_function
        self._cpu[app.name] = report.cpu_load
        # Quasar's profiling is the short classification run only.
        return ProfilingCost(feature_extraction_min=report.feature_extraction_min)

    def matched_program(self, app_name: str) -> str:
        """Name of the training program the application was classified as."""
        for example in self.dataset.examples:
            if example.fitted_function is self._matched[app_name]:
                return example.program
        raise KeyError(app_name)

    def footprint_gb(self, app_name, data_gb):
        raw = float(self._matched[app_name].predict_footprint_gb(data_gb))
        quantum = self.allocation_quantum_gb
        return float(np.ceil(raw / quantum) * quantum)

    def cpu_load(self, app_name):
        return self._cpu[app_name]

    def data_for_budget_gb(self, app_name, budget_gb, max_gb=1e6):
        return self._matched[app_name].data_for_budget_gb(budget_gb, max_gb=max_gb)
