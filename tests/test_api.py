import warpmatch


def test_all_names_resolve():
    missing = [name for name in warpmatch.__all__ if not hasattr(warpmatch, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(warpmatch.__all__) == len(set(warpmatch.__all__))
