import doctest

from bruhatkit import algdim, deodhar, rootsys, weyl


def test_module_doctests():
    for module in (rootsys, weyl, algdim, deodhar):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
