import pytest
from hypothesis import settings

from bvsharp import DomainSpec, build_domain

# Property tests draw the same examples on every run, and a slow shared
# host never turns them into deadline failures.
settings.register_profile("bvsharp", derandomize=True, deadline=None, max_examples=150,
                          database=None)
settings.load_profile("bvsharp")


@pytest.fixture(scope="session")
def disk128():
    return build_domain(DomainSpec.disk(1.0), 1.0 / 128)


@pytest.fixture(scope="session")
def disk256():
    return build_domain(DomainSpec.disk(1.0), 1.0 / 256)


@pytest.fixture(scope="session")
def disk512():
    return build_domain(DomainSpec.disk(1.0), 1.0 / 512)


@pytest.fixture(scope="session")
def ellipse256():
    return build_domain(DomainSpec.ellipse(2.0, 1.0), 1.0 / 256)
