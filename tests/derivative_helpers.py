"""The k-th stress derivative of the strain law, for tests that check one
order at a time against finite differences or closed forms."""
from stresswave.constitutive import MaterialParams, derivatives


def strain_derivative(sigma, order: int, p: MaterialParams):
    """d^order(eps)/d(sigma)^order for order in {1, 2, 3}."""
    return derivatives(sigma, p)[order - 1]
