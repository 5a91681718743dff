"""The kept mutants still name the code they change and the tests that kill
them; ``python tests/mutants.py`` applies them."""

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_code_and_tests_that_exist(mutant):
    assert mutant.path.startswith("src/")
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    for test in mutant.tests:
        path, *names = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"def {names[-1].split('[')[0]}(" in source, test
