#!/usr/bin/env python3
"""Effective resolution versus decimation factor.

Measures ENOB through the designed chain at 64x, 128x and 256x total
decimation.  On the float path (before 16-bit output rounding) each
doubling of the decimation factor buys close to half a bit, the expected
oversampling gain for white quantization noise.
"""

from shmtwin.decimator import DecimatorSpec, design_decimator, measure_enob


def main() -> None:
    print("decim  f_out_hz   enob_int16  enob_float")
    for total in (64, 128, 256):
        spec = DecimatorSpec(total_decim=total)
        stages, _ = design_decimator(spec)
        e_q = measure_enob(stages)
        e_f = measure_enob(stages, quantize_output=False)
        print(f"{total:5d}  {spec.f_out_hz:8.1f}   {e_q:9.3f}  {e_f:9.3f}")


if __name__ == "__main__":
    main()
