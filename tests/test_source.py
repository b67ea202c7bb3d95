import tokenize
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sbqs"

#: CPython 3.11 parses a module into a token array that doubles when full; a
#: module past 8,192 tokens doubles it to 16,384, and its compile peak (every
#: process that imports the package from source pays it) steps from below 2 to
#: about 3.5 MiB.
TOKEN_STEP = 8192


def parser_tokens(path: Path) -> int:
    """The tokens the parser reads: comments, non-logical newlines and the
    encoding marker are Python's tokenize module's own."""
    with path.open("rb") as f:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                   for t in tokenize.tokenize(f.readline))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_stays_below_the_token_buffer_step(path):
    assert parser_tokens(path) < TOKEN_STEP
