import pytest

from ccslab.classify import classify
from ccslab.core import DensityState, PureState
from ccslab.families import Family, bell_phi_vector, generate
from ccslab.goldentable import golden_parameter_sets, reference_state
from ccslab.sampling import SamplerConfig, ginibre_state, rng_for
from ccslab.twoqubit import canonical_events

#: small sampler for tests that classify every golden point
GOLDEN_CFG = SamplerConfig(seed=1, n_states=50, n_event_pairs=20)


@pytest.fixture
def pair():
    return canonical_events()


@pytest.fixture
def bell_state():
    return PureState(bell_phi_vector())


@pytest.fixture
def bell_density():
    return DensityState.from_vector(bell_phi_vector())


@pytest.fixture
def full_support_state():
    return ginibre_state(4, rng_for(7, 0))


@pytest.fixture
def max_mixed():
    return DensityState.maximally_mixed(4)


@pytest.fixture(scope="session")
def golden_reports():
    """(family, params, partition, state, report) for the 66 golden points,
    each classified with its reference state and the canonical pair."""
    out = []
    for family in Family:
        for params in golden_parameter_sets(family):
            partition = generate(family, params).partition
            state = reference_state(family, params)
            report = classify(partition, canonical_events(), state, GOLDEN_CFG, bipartite=(2, 2))
            out.append((family, params, partition, state, report))
    return out


def assert_close(actual, expected, tol=1e-12):
    assert abs(actual - expected) <= tol, f"{actual} != {expected} (tol {tol})"


def pytest_terminal_summary(terminalreporter):
    import conftest_acceptance

    if conftest_acceptance.LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(conftest_acceptance.LINES):
            terminalreporter.write_line(line)
