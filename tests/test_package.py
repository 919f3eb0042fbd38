import szego


def test_every_export_is_a_package_attribute_listed_once():
    names = szego.__all__
    assert [name for name in names if not hasattr(szego, name)] == []
    assert len(set(names)) == len(names)
