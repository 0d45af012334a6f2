"""The package's public names."""

import lagssm


def test_all_names_resolve_and_are_unique():
    assert len(set(lagssm.__all__)) == len(lagssm.__all__)
    missing = [name for name in lagssm.__all__ if not hasattr(lagssm, name)]
    assert missing == []
    assert len(lagssm.__all__) == 35
