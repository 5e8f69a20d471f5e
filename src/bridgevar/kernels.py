"""The polynomial kernels of `bridgevar._kernels` under their public names.

`BACKEND` names the kernel implementation, which is always the pure
Python one.
"""

from ._kernels import (euclid_divmod_p, euclid_gcd_p, euclid_pack,
                       frobenius_apply_p, frobenius_rows_p, poly_divmod_p,
                       poly_gcd_p, poly_monic_p, poly_mul, poly_mul_p,
                       poly_mulmod_p, poly_powmod_p, poly_rem_p,
                       poly_resultant_p, ring_euclid, ring_p, ring_pack,
                       ring_unpack, trim)

BACKEND = "pure"
