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

from demoplan import planner
from demoplan.learning import build_library
from demoplan.planner import Task, derive_costs, ground
from demoplan.segmentation import DEFAULT_RULES
from demoplan.synth import corpus, planning_objects

FIXTURE_PATH = Path(__file__).parent / "data" / "put_fixture.json"


@pytest.fixture
def task_calls(monkeypatch):
    """How often an action list is compiled ("_compile", by ``Task(actions)``
    or by grounding a core) and a Task searched ("search") while the test
    runs. Grounding's cache of compiled cores starts empty, so a count does
    not depend on which tests ran before."""
    planner._core.cache_clear()
    calls = Counter()

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(planner, "_compile", counter("_compile", planner._compile))
    monkeypatch.setattr(Task, "search", counter("search", Task.search))
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
