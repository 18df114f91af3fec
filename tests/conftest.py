import pytest

from sturmian import directive_images


@pytest.fixture(scope="session")
def psi12():
    """Images of every directive word of length <= 12, keyed by directive.

    Built through the morphism recursion; test_oracle pins this route against
    psi and test_palindromization pins psi against the definitional closure
    construction, after which the remaining tests are free to share it.
    """
    table = {}
    for n in range(13):
        table.update(directive_images(n))
    return table
