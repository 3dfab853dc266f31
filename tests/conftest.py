import pytest

from depnorm import DEFAULT_SEED, reproduce_tables


@pytest.fixture(scope="session")
def fast_tables(tmp_path_factory):
    """The file map of one ``reproduce_tables(fast=True)`` run at the default
    seed, shared by every test that reads those files."""
    return reproduce_tables(tmp_path_factory.mktemp("fast_tables"), fast=True,
                            seed=DEFAULT_SEED)
