import iabsim


def test_every_exported_name_resolves():
    missing = [name for name in iabsim.__all__ if not hasattr(iabsim, name)]
    assert missing == []
    assert len(set(iabsim.__all__)) == len(iabsim.__all__)
