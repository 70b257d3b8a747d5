import doctest

from bruhatkit import algdim, complexity, deodhar, rootsys, weyl


def test_module_doctests():
    for module in (rootsys, weyl, algdim, deodhar, complexity):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
