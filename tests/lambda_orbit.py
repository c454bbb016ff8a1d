"""Test helper: the anharmonic orbit of a modular lambda value."""


def lambda_orbit(p0: complex) -> tuple:
    """The six-element orbit of p0 under the anharmonic group.

    lambda values of the same curve over the six choices of level-2 structure.
    """
    p0 = complex(p0)
    return (p0, 1 - p0, 1 / p0, 1 / (1 - p0), p0 / (p0 - 1), (p0 - 1) / p0)
