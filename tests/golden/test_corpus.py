"""Diff current runs against the committed golden corpus.

``corpus.json`` (see ``regen.py --corpus``) digests every registered
scheme on six scenarios under both engines, plus the fleet-scale
``mega_ci_1k``/pairwise run: the full event stream's sha256, every
application's finish time and processed volume, and the headline
metrics.  It was recorded from the retired per-object kernel, the
array kernel's parity oracle, before that kernel was deleted; the array
kernel still has to reproduce it bit for bit.  An *intentional*
behaviour change is blessed with::

    PYTHONPATH=src python tests/golden/regen.py --corpus --regen
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN_PATH = Path(__file__).resolve().parent / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = regen.corpus_cases()


@pytest.fixture(scope="module")
def committed():
    assert regen.CORPUS_PATH.is_file(), (
        f"golden corpus is missing; generate it with "
        f"`PYTHONPATH=src python {_REGEN_PATH} --corpus --regen`")
    return json.loads(regen.CORPUS_PATH.read_text())["entries"]


@pytest.fixture(scope="module")
def artefacts():
    return regen.corpus_artefacts()


def test_corpus_covers_every_registered_scheme(committed):
    assert set(committed) == {regen.corpus_key(*case) for case in CASES}


@pytest.mark.parametrize("scenario,scheme,engine", CASES,
                         ids=[regen.corpus_key(*case) for case in CASES])
def test_run_matches_corpus(scenario, scheme, engine, committed, artefacts):
    key = regen.corpus_key(scenario, scheme, engine)
    expected = committed[key]
    current = regen.make_corpus_entry(scenario, scheme, engine, artefacts)
    assert current["n_events"] == expected["n_events"], key
    assert current["events_sha256"] == expected["events_sha256"], (
        f"{key}: event stream drifted from the golden corpus")
    assert current["apps"] == expected["apps"], key
    assert current["metrics"] == expected["metrics"], key
