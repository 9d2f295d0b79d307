"""Golden pin of every mechanism's ``perturb`` draws.

``tests/data/golden_perturb.json`` holds ``float.hex`` of
``perturb(values, eps, seed)`` for every registry mechanism and two
affine-wrapped ones, with values at (and within the validation tolerance
just past) the domain endpoints. It was recorded before ``perturb``
became a template over ``_sample``, so it proves the sampler consumes the
generator draw for draw as the per-mechanism ``perturb`` methods did.

Regenerate with ``PYTHONPATH=src python tests/test_mechanisms_golden.py``
only when a change is meant to alter the draws.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.mechanisms import (
    AffineTransformedMechanism,
    PiecewiseMechanism,
    SquareWaveMechanism,
    get_mechanism,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_perturb.json"

REGISTRY_NAMES = (
    "duchi",
    "hybrid",
    "laplace",
    "piecewise",
    "scdf",
    "square_wave",
    "square_wave_unit",
    "staircase",
)
AFFINE = {
    "piecewise@[-3,7]": lambda: AffineTransformedMechanism(
        PiecewiseMechanism(), (-3.0, 7.0)
    ),
    "square_wave_unit@[0,10]": lambda: AffineTransformedMechanism(
        SquareWaveMechanism(), (0.0, 10.0)
    ),
}
#: 0.5 sits below the hybrid's ε* (pure Duchi branch), 4.0 above it.
EPSILONS = (0.5, 4.0)
SEEDS = (0, 7)


def _mechanism(name):
    return AFFINE[name]() if name in AFFINE else get_mechanism(name)


def _values(mechanism):
    lo, hi = mechanism.input_domain
    tol = 5e-10
    return np.array(
        [lo, hi, lo - tol, hi + tol, 0.5 * (lo + hi), lo, hi, 0.25 * lo + 0.75 * hi]
    )


def _cases():
    for name in REGISTRY_NAMES + tuple(AFFINE):
        for eps in EPSILONS:
            for seed in SEEDS:
                yield "%s|%g|%d" % (name, eps, seed), name, eps, seed


def _draws(name, eps, seed):
    mechanism = _mechanism(name)
    values = _values(mechanism)
    # A 2-D block exercises shape handling (the histogram route's layout).
    block = np.stack([values, values[::-1]])
    out = mechanism.perturb(block, eps, np.random.default_rng(seed))
    return [float(x).hex() for x in out.ravel()]


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize(
    "case,name,eps,seed", list(_cases()), ids=[c[0] for c in _cases()]
)
def test_perturb_matches_golden(case, name, eps, seed):
    assert _draws(name, eps, seed) == GOLDEN[case]


def test_golden_covers_every_registry_mechanism():
    from repro.mechanisms import available_mechanisms

    assert set(available_mechanisms()) <= set(REGISTRY_NAMES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({case: _draws(*rest) for case, *rest in _cases()}, indent=1)
        + "\n"
    )
