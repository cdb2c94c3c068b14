"""The finite-difference oracle that analytic gradients are checked against."""

from typing import Callable

import numpy as np

from etlwatch.errors import ContractViolationError, NumericalError
from etlwatch.numerics import as_vector


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Richardson-extrapolated central-difference gradient of a scalar function.

    With D(s)[i] = (f(x + s*e_i) - f(x - s*e_i)) / (2s), the result is
    (4 D(h/2) - D(h)) / 3, which cancels the h^2 term of the central
    difference's error. Steps large enough to keep round-off small, such as
    h = 1e-4, then still leave a truncation error of order h^4.
    """
    if h <= 0:
        raise ContractViolationError(f"step size must be positive, got {h}")
    x = as_vector(x)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        probe = x.copy()
        central = []
        for step in (h, h / 2):
            probe[i] = x[i] + step
            f_plus = float(f(probe))
            probe[i] = x[i] - step
            f_minus = float(f(probe))
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericalError(f"non-finite function value at probe index {i}")
            central.append((f_plus - f_minus) / (2.0 * step))
        grad[i] = (4.0 * central[1] - central[0]) / 3.0
    return grad
