import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_examples():
    """Every ``>>>`` example of the README's quick tour gives its output."""
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
