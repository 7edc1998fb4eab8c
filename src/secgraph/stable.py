"""One-sided alpha-stable numerics under the characteristic-function convention

    E{exp(jwX)} = exp(-gamma*|w|^alpha * [1 - j*beta*sign(w)*tan(pi*alpha/2)])

for alpha != 1.  This is the Samorodnitsky-Taqqu "S" convention with the
dispersion written as gamma = sigma^alpha, so S(alpha, beta, gamma) equals
gamma^(1/alpha) times a standard S_alpha(1, beta, 0) draw.  Everything here
is specialized to the totally skewed one-sided case beta=1, 0 < alpha < 1,
which is what a Poisson field of power-law interferers produces.

The normalized CDF is Kanter's integral over [0, pi],

    F(x) = (1/pi) * Int_0^pi exp(-(x/c)^(-alpha/(1-alpha)) * A(theta)) dtheta,
    A(theta) = [sin(alpha*theta)^alpha * sin((1-alpha)*theta)^(1-alpha)
                / sin(theta)]^(1/(1-alpha)),

with c = sec(pi*alpha/2)^(1/alpha); A(theta) is the function the
Chambers-Mallows-Stuck sampler draws through at beta=1.  One fixed quadrature
serves every alpha in (0, 1).  alpha = 1/2 has the closed form
F(x) = 2Q(1/sqrt(x)), which the test suite and the acceptance battery keep
as the independent check on both the CDF and the sampler's parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .pointprocess import Rng

__all__ = ["StableParams", "cdf_normalized", "sample", "mellin_neg_moment"]


@dataclass(frozen=True)
class StableParams:
    """(alpha, beta, gamma) of the stable law; dispersion gamma = sigma^alpha."""

    alpha: float
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not -1 <= self.beta <= 1:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


def mellin_neg_moment(alpha: float) -> float:
    """E{X^-alpha} for X ~ S(alpha, 1, 1): cos(pi*alpha/2) / Gamma(1+alpha)."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.cos(math.pi * alpha / 2.0) / math.gamma(1.0 + alpha)


def sample(p: StableParams, rng: Rng, size=None):
    """Draw from S(alpha, 1, gamma), one-sided, 0 < alpha < 1.

    Chambers-Mallows-Stuck generator for the standard law, specialized to
    beta=1 (so the shift angle arctan(beta*tan(pi*alpha/2))/alpha collapses
    to pi/2), then scaled by gamma^(1/alpha).  With theta = V + pi/2:

        X0 = cos(pi*alpha/2)^(-1/alpha) * sin(alpha*theta) * (sin theta)^(-1/alpha)
             * (sin((1-alpha)*theta) / W)^((1-alpha)/alpha)

    V ~ U(-pi/2, pi/2), W ~ Exp(1).  The parameterization mapping is
    validated against F(x) = 2Q(1/sqrt(x)) at alpha = 1/2 in the test suite.
    """
    if p.beta != 1.0:
        raise ValueError("sampler supports the totally skewed case beta=1 only")
    if not 0 < p.alpha < 1:
        raise ValueError(f"sampler requires 0 < alpha < 1, got {p.alpha}")
    scalar = size is None
    n = 1 if scalar else size
    g = rng.generator()
    a = p.alpha
    theta = g.uniform(0.0, math.pi, n)
    # theta=0 occurs with probability 2^-53 and would produce 0*inf
    theta = np.maximum(theta, 2.0**-60)
    w = g.standard_exponential(n)
    x0 = (
        math.cos(math.pi * a / 2.0) ** (-1.0 / a)
        * np.sin(a * theta)
        * np.sin(theta) ** (-1.0 / a)
        * (np.sin((1.0 - a) * theta) / w) ** ((1.0 - a) / a)
    )
    out = p.gamma ** (1.0 / a) * x0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# CDF by Kanter's integral


# points per slab of the points x nodes matrix: 4096 x 256 doubles is 8 MB
_KANTER_CHUNK = 4096


@cache
def _kanter_rule():
    """256-node Gauss-Legendre rule on t in [0, 1], mapped by theta = pi*(1 - (1-t)^5).

    The map crowds the nodes toward theta = pi, where A(theta) blows up.
    Returns theta, log sin(theta) (taken from pi - theta, so exact near pi)
    and the weights of (1/pi) dtheta = 5 (1-t)^4 dt, which sum to 1.  Built
    on first use, so that importing this module loads no scipy.

    Against a 32768-node rule, 256 nodes keep the relative error in 1 - F
    below 1e-8 up to x = 1e5 at alpha = 3/4 (x = 1e7 at 2/3) and below 1e-4
    up to x = 1e10; a cubic map was 2e-2 off at alpha = 3/4 and x = 1e10.
    """
    from scipy.special import roots_legendre

    t, w = roots_legendre(256)
    t = 0.5 * (t + 1.0)
    u = (1.0 - t) ** 5
    return math.pi * (1.0 - u), np.log(np.sin(math.pi * u)), 2.5 * (1.0 - t) ** 4 * w


def cdf_normalized(x, alpha: float):
    """CDF of the normalized one-sided law S(alpha, 1, 1) by Kanter's integral
    (Ann. Probab. 3, 1975).  Accepts arrays; x <= 0 gives 0, +inf gives 1 and
    NaN raises.  The exponent is formed in the log domain, since z*A(theta)
    is 0*inf near theta = pi once z underflows.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    theta, log_sin, weights = _kanter_rule()
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(np.isnan(xs)):
        raise ValueError("x must not be NaN")
    out = np.zeros_like(xs)
    out[np.isposinf(xs)] = 1.0
    pos = (xs > 0) & np.isfinite(xs)
    e = alpha / (1.0 - alpha)
    log_c = -math.log(math.cos(math.pi * alpha / 2.0)) / alpha
    log_a = e * np.log(np.sin(alpha * theta)) + np.log(np.sin((1.0 - alpha) * theta))
    log_a -= log_sin / (1.0 - alpha)
    log_z = -e * (np.log(xs[pos]) - log_c)
    vals = np.empty_like(log_z)
    for i in range(0, len(log_z), _KANTER_CHUNK):
        m = np.add.outer(log_z[i : i + _KANTER_CHUNK], log_a)
        # exp(-exp(700)) is already 0; the cap keeps the inner exp finite
        np.minimum(m, 700.0, out=m)
        np.exp(m, out=m)
        np.negative(m, out=m)
        np.exp(m, out=m)
        vals[i : i + _KANTER_CHUNK] = m @ weights
    out[pos] = np.clip(vals, 0.0, 1.0)
    return float(out[0]) if scalar else out
