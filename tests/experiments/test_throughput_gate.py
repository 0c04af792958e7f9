"""Unit tests for the per-slice gates in ``benchmarks/compare_baseline.py``."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "compare_baseline", ROOT / "benchmarks" / "compare_baseline.py")
compare_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_baseline)


def tier(events_per_s: float, calibration_s: float = 0.1,
         events: int = 80_000, makespan: float = 121.0) -> dict:
    """One tier entry: trajectory-pinned, calibration-normalized."""
    return {"events_per_s": events_per_s, "calibration_s": calibration_s,
            "events": events, "makespan_min": makespan}


def gate(pr_tiers: dict, base_tiers: dict) -> list[str]:
    failures: list = []
    compare_baseline.check_throughput({"tiers": pr_tiers},
                                      {"tiers": base_tiers}, 0.15, failures)
    return failures


class TestThroughputGate:
    def test_identical_reports_pass(self):
        assert gate({"ci": tier(5000.0)}, {"ci": tier(5000.0)}) == []

    def test_small_regression_within_budget_passes(self):
        assert gate({"ci": tier(4500.0)}, {"ci": tier(5000.0)}) == []

    def test_regression_beyond_budget_fails(self):
        failures = gate({"ci": tier(2500.0)}, {"ci": tier(5000.0)})
        assert len(failures) == 1 and "normalized events/sec" in failures[0]

    def test_uniformly_slower_runner_passes(self):
        # Half the events/sec, but the calibration loop also took twice
        # as long in the same process: hardware, not a regression.
        assert gate({"ci": tier(2500.0, calibration_s=0.2)},
                    {"ci": tier(5000.0, calibration_s=0.1)}) == []

    def test_improvement_always_passes(self):
        assert gate({"ci": tier(9000.0), "mega": tier(20_000.0)},
                    {"ci": tier(5000.0), "mega": tier(15_000.0)}) == []

    def test_trajectory_divergence_fails_regardless_of_speed(self):
        failures = gate({"ci": tier(9000.0, events=80_001)},
                        {"ci": tier(5000.0)})
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_makespan_divergence_fails(self):
        failures = gate({"ci": tier(5000.0, makespan=122.0)},
                        {"ci": tier(5000.0)})
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_missing_baseline_tier_is_skipped_not_failed(self):
        assert gate({"mega": tier(5000.0)}, {"ci": tier(5000.0)}) == []

    def test_missing_calibration_fails(self):
        entry = tier(5000.0)
        del entry["calibration_s"]
        failures = gate({"ci": entry}, {"ci": tier(5000.0)})
        assert len(failures) == 1 and "calibration_s" in failures[0]

    def test_committed_report_shape_feeds_the_gate(self):
        """The committed BENCH_throughput.json is a valid gate baseline."""
        committed = json.loads((ROOT / "BENCH_throughput.json").read_text())
        failures: list = []
        compare_baseline.check_throughput(committed, committed, 0.15,
                                          failures)
        assert failures == []
        prior = committed["prerefactor_baseline"]
        # The PR 6 tentpole acceptance: the mega tier runs several times
        # the object-per-epoch kernel's events/sec on the same trajectory.
        mega = committed["tiers"]["mega"]
        assert mega["events"] == prior["mega"]["events"]
        assert mega["events_per_s"] >= 5.0 * prior["mega"]["events_per_s"]
        # The PR 7 tentpole acceptance: the scheduler-bound queue tier
        # runs >= 3x the pre-PR events/sec (same scenario shape, both
        # runs recorded in the committed report), with the per-phase
        # breakdown present.
        queue = committed["tiers"]["queue"]
        assert queue["events"] == prior["queue"]["events"]
        assert queue["events_per_s"] >= 3.0 * prior["queue"]["events_per_s"]
        assert set(queue["phases_s"]) == {"arrivals", "faults", "oom",
                                          "schedule", "advance", "other"}



def case(steps_per_s: float, calibration_s: float = 0.0007, steps: int = 46,
         stp: float = 8.1185) -> dict:
    """One rollout case entry: trajectory-pinned, calibration-normalized."""
    return {"steps_per_s": steps_per_s, "calibration_s": calibration_s,
            "steps": steps, "stp": stp}


def rollout_gate(pr_case: dict, base_case: dict, **extra) -> list[str]:
    failures: list = []
    compare_baseline.check_rollout({"cases": {"c": pr_case}, **extra},
                                   {"cases": {"c": base_case}}, failures)
    return failures


class TestRolloutGate:
    def test_identical_reports_pass(self):
        assert rollout_gate(case(800.0), case(800.0)) == []

    def test_stp_drift_fails(self):
        failures = rollout_gate(case(800.0, stp=8.1186), case(800.0))
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_step_count_drift_fails(self):
        failures = rollout_gate(case(800.0, steps=47), case(800.0))
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_regression_beyond_budget_fails(self):
        slower = 800.0 * (0.95 - compare_baseline.ROLLOUT_MAX_REGRESSION)
        failures = rollout_gate(case(slower), case(800.0))
        assert len(failures) == 1 and "normalized steps/sec" in failures[0]

    def test_uniformly_slower_runner_passes(self):
        # Half the steps/sec, but the reference slices also took twice
        # as long in the same process: hardware, not a regression.
        assert rollout_gate(case(400.0, calibration_s=0.0014),
                            case(800.0)) == []

    def test_committed_checkpoint_mismatch_fails(self):
        pin = {"committed_stp": 8.1186, "measured_stp": 8.2,
               "matches": False}
        failures = rollout_gate(case(800.0), case(800.0),
                                committed_checkpoint=pin)
        assert len(failures) == 1 and "committed checkpoint" in failures[0]

    def test_committed_report_feeds_the_gate(self):
        committed = json.loads((ROOT / "BENCH_rollout.json").read_text())
        assert len(committed["cases"]) == 4
        failures: list = []
        compare_baseline.check_rollout(committed, committed, failures)
        assert failures == []
