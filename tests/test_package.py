"""The package's public surface."""

import unijoin


def test_all_exports_resolve():
    missing = [name for name in unijoin.__all__ if not hasattr(unijoin, name)]
    assert missing == []
