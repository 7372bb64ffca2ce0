"""The package's public names."""

import ghostcomb


def test_every_export_is_an_attribute_listed_once():
    names = ghostcomb.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ghostcomb, name)] == []
