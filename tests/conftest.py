import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_after_cli():
    """``cli.main`` freezes the loaded program for the rest of its process;
    undo that after each test, so later tests' collections see every object."""
    yield
    gc.unfreeze()
