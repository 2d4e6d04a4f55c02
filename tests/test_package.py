from types import ModuleType

import conelab


def test_all_names_no_module():
    assert conelab.__all__
    modules = [name for name in conelab.__all__
               if isinstance(getattr(conelab, name), ModuleType)]
    assert not modules
