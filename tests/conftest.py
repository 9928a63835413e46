import faulthandler
import os
import random
import sys

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from surfclass.words import Letter, Word

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# a test that runs this long has hung: dump every thread's stack and exit,
# so the run fails instead of waiting; the slowest test takes a few seconds
HUNG_TEST_SECONDS = 120
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of stderr taken before any test captures it, so the dump of a
    # hung test reaches the terminal rather than that test's captured output
    config.stash[STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.fixture(autouse=True)
def fail_hung_test(pytestconfig):
    fd = pytestconfig.stash[STDERR_FD]
    faulthandler.dump_traceback_later(HUNG_TEST_SECONDS, exit=True, file=fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@st.composite
def words(draw, min_pairs=1, max_pairs=6):
    """Random valid closed-surface words: each symbol occurs exactly twice."""
    k = draw(st.integers(min_value=min_pairs, max_value=max_pairs))
    slots = list(range(2 * k))
    perm = draw(st.permutations(slots))
    exps = [draw(st.sampled_from([1, -1])) for _ in slots]
    letters = tuple(Letter(f"s{perm[i] // 2}", exps[i]) for i in slots)
    return Word(letters)


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def random_word(rng, max_pairs=6, min_pairs=1, prefix="s"):
    k = rng.randint(min_pairs, max_pairs)
    letters = []
    for i in range(k):
        letters.append(Letter(f"{prefix}{i}", rng.choice([1, -1])))
        letters.append(Letter(f"{prefix}{i}", rng.choice([1, -1])))
    rng.shuffle(letters)
    return Word(tuple(letters))
