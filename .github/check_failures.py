"""Check that a pytest JUnit XML report failed exactly the expected tests.

    python .github/check_failures.py <report.xml> <test id> ...

Test ids are given as pytest prints them (``tests/test_x.py::test_y``).
Exits 1, naming the difference, when any other test failed or errored, or
when an expected test did not fail (it passed, was skipped or did not run).
"""

import sys
import xml.etree.ElementTree as ET


def _key(test_id: str) -> str:
    """``tests/test_x.py::Cls::test_y`` as JUnit's ``classname.name``."""
    return test_id.replace(".py::", ".").replace("::", ".").replace("/", ".")


def main(report: str, *expected: str) -> int:
    cases = ET.parse(report).getroot().iter("testcase")
    failed = {f"{case.get('classname')}.{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    wanted = {_key(test_id) for test_id in expected}
    for label, names in (("unexpected failures", failed - wanted),
                         ("expected to fail but did not", wanted - failed)):
        if names:
            print(f"{label}: {sorted(names)}")
    print(f"{len(failed)} failed, as expected: {failed == wanted}")
    return 0 if failed == wanted else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
