import pytest


def _cdf_reference(x, pdf, dps=30):
    """P(loss <= x) of the approximate loss at `dps` digits, as an mpf.

    Integrates (2/pi) int_0^(pi/2) r**(q*varpi / (cos^2 t + q^2 sin^2 t)) dt,
    r = x/a0, by Gauss-Legendre in mpmath.  The integrand peaks at t = 0
    with width about (q*varpi*|ln r|)**-0.5, so [0, pi/2] is split at half
    widths up to 20 widths as well as evenly; with only 9 or 33 even splits
    mpmath itself is off by up to 1.6e-9.  Against 100 quarter-width and
    100 even splits at 40 digits it agrees to 1.2e-14.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        r = mp.mpf(x) / mp.mpf(pdf.a0)
        if r <= 0:
            return mp.mpf(0)
        if r >= 1:
            return mp.mpf(1)
        q, varpi = mp.mpf(pdf.hoyt.q), mp.mpf(pdf.varpi)
        width = 1 / mp.sqrt(q * varpi * -mp.log(r))
        splits = ({min(k * width / 2, mp.pi / 2) for k in range(41)}
                  | set(mp.linspace(0, mp.pi / 2, 40)))
        val = mp.quad(
            lambda t: r ** (q * varpi / (mp.cos(t) ** 2 + (q * mp.sin(t)) ** 2)),
            sorted(splits), method="gauss-legendre")
        return 2 * val / mp.pi


@pytest.fixture(scope="session")
def cdf_reference():
    return _cdf_reference
