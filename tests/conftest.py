import os
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci makes every @given test draw the same examples on
# every run (no random seed, no example database), so CI results reproduce.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from demoplan.learning import build_library
from demoplan.planner import Task, derive_costs, ground
from demoplan.segmentation import DEFAULT_RULES
from demoplan.synth import corpus, planning_objects

FIXTURE_PATH = Path(__file__).parent / "data" / "put_fixture.json"


@pytest.fixture
def task_calls(monkeypatch):
    """How often a Task is compiled ("_compile", by ``Task(actions)`` or by
    grounding) and searched ("search") while the test runs."""
    calls = Counter()
    for name in ("_compile", "search"):
        original = getattr(Task, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Task, name, counted)
    return calls


@pytest.fixture(scope="session")
def corpus_demos():
    return corpus()


@pytest.fixture(scope="session")
def corpus_library(corpus_demos):
    # Session-scoped and therefore shared: tests must not merge into it.
    return build_library([d.trace for d in corpus_demos], DEFAULT_RULES)


@pytest.fixture(scope="session")
def corpus_actions(corpus_library):
    return ground(corpus_library, planning_objects(), derive_costs(corpus_library))


@pytest.fixture
def fixture_path():
    assert FIXTURE_PATH.is_file()
    return FIXTURE_PATH
