import algpoly


def test_all_names_resolve():
    assert len(set(algpoly.__all__)) == len(algpoly.__all__)
    assert [name for name in algpoly.__all__ if not hasattr(algpoly, name)] == []
