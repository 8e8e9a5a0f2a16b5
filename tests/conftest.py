import numpy as np
import pytest

from dlsq import network
from dlsq.datasets import REGISTRY, dataset_path, load_dataset

# Filled by test_acceptance; echoed after the session so every criterion
# shows one PASS/FAIL/SKIP line even under output capture.
ACCEPTANCE_LINES = []


def dataset_or_skip(name):
    """Load a registry dataset or skip the test with fetch instructions."""
    path = dataset_path(name)
    if not path.exists():
        pytest.skip(f"dataset {name} not present at {path}; "
                    f"fetch {REGISTRY[name].url} and extract the .mtx there")
    return load_dataset(name)


def dataset_available(name):
    return dataset_path(name).exists()


@pytest.fixture
def small_problem():
    """60 x 10 synthetic regression with Gram spectrum in [1, 4]."""
    return load_dataset("synth:60,10,4.0,3")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_SPARE_HELPER = []


@pytest.fixture
def use_helpers(monkeypatch):
    """use_helpers(on). With on (the default), rounds above
    network.CONCURRENT_FLOPS run on this process's helpers, or on one
    spare helper where the process may use a single CPU, so they are
    concurrent on any host; without, every round is sequential, as on
    one CPU."""
    lock, helpers = network._helpers()
    if not helpers:
        if not _SPARE_HELPER:
            _SPARE_HELPER.append(network._Helper())
        helpers = _SPARE_HELPER

    def use(on):
        monkeypatch.setattr(network, "_helpers", lambda: (lock, helpers if on else []))

    use(True)
    return use


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
