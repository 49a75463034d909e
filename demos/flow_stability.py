# How the generalized distance behaves under particle flows.
#
# Push two measures along velocity fields with certified constants
# (L = spatial Lipschitz bound, M = sup bound) and compare the distance of
# the pushed pair against three a priori bounds: Gronwall-type expansion
# under a shared field, bounded displacement under a single field, and the
# mixed bound when the two measures ride different fields.

import numpy as np

from gwass import DiscreteMeasure, FlowConfig, GwParams, build_velocity_model
from gwass.lab import flow_estimate_report


def main():
    params = GwParams(a=1.0, b=1.0, p=1.0)
    rng = np.random.default_rng(1)
    mu = DiscreteMeasure(1, rng.uniform(-1, 0, (12, 1)), np.full(12, 1 / 12))
    nu = DiscreteMeasure(1, rng.uniform(-0.8, 0.3, (9, 1)), np.full(9, 0.9 / 9))
    cap = 1.1

    drift = build_velocity_model(
        {"base": {"kind": "constant", "c": [0.4]},
         "kernel": {"kind": "bump", "radius": 0.5, "height": 0.3}},
        params, cap)
    wobble = build_velocity_model(
        {"base": {"kind": "sine", "amplitude": [0.3], "frequency": [2.0]},
         "kernel": {"kind": "bump", "radius": 0.4, "height": -0.2}},
        params, cap)
    print("field 1 constants:", drift.constants)
    print("field 2 constants:", wobble.constants)

    print(f"\n{'t':>5} {'bound':<24} {'lhs':>10} {'rhs':>10} {'slack':>10}")
    for t in (0.1, 0.25, 0.5, 1.0):
        for check in flow_estimate_report(drift, wobble, mu, nu, t, params,
                                          FlowConfig(1 / 256)):
            print(f"{t:5.2f} {check.check_id:<24} {check.lhs:10.6f} {check.rhs:10.6f}"
                  f" {check.rhs - check.lhs:10.6f}")
    print("\nAll three bounds hold with slack; the displacement bound is the")
    print("tight one for small t (every atom moves at most t*M, and carrying")
    print("the whole measure that far costs exactly b * t * M * |mu| at p=1")
    print("while removal is never cheaper for small displacements).")


if __name__ == "__main__":
    main()
