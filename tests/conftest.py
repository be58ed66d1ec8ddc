import pytest

import greentx as gx

# Session-scoped models are shared across tests; nothing may mutate them.


@pytest.fixture(scope="session")
def reduced_cfg():
    return gx.reduced_profile()


@pytest.fixture(scope="session")
def reduced_model(reduced_cfg):
    return reduced_cfg.build_model()


@pytest.fixture(scope="session")
def full_cfg():
    return gx.table_profile()


@pytest.fixture(scope="session")
def full_model(full_cfg):
    return full_cfg.build_model()
