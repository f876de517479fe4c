import boda


def test_every_exported_name_resolves():
    assert len(boda.__all__) == len(set(boda.__all__))
    for name in boda.__all__:
        assert getattr(boda, name) is not None, name
    assert not [name for name in boda.__all__ if name.startswith("_")]
