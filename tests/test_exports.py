"""The package's public names."""
import sturmian


def test_every_exported_name_resolves_once():
    names = sturmian.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sturmian, name)] == []
