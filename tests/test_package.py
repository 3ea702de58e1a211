import commnet


def test_all_names_resolve_once_and_sorted():
    names = commnet.__all__
    assert all(hasattr(commnet, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
