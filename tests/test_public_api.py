"""The package's public surface."""

import legendrian_lab


def test_every_name_in_all_resolves():
    missing = [name for name in legendrian_lab.__all__ if not hasattr(legendrian_lab, name)]
    assert missing == []
    assert len(set(legendrian_lab.__all__)) == len(legendrian_lab.__all__)
