#!/usr/bin/env python3
"""Regenerate the cross-validation stream and golden report inputs.

The battery's cross-validation golden (tests/data/nist_sts_golden.json)
pins p-values for the first 10^6 bits of the binary expansion of e, the
canonical reference input of the official NIST SP 800-22 suite.  The
golden values themselves are the example outputs NIST published for
that input, so they never need recomputing.

This script exists for two maintenance jobs:

1. `--emit-stream DIR` writes the reference stream to DIR in both
   formats (ascii-01 and raw-bytes) so it can be fed to the official
   `assess` tool (sts-2.1.2) to re-derive or extend the golden report,
   e.g.:

       ./assess 1000000   # input file: DIR/e_bits.txt, 1 bitstream,
                          # file format: ASCII 0/1

   Relevant parameters: block frequency M=128, serial m=2,
   approximate entropy m=10 (set in the assess parameter menu).

2. `--emit-stream DIR --generator` additionally writes a 10^6-bit
   stream produced by this package's generator (first known chaotic
   variant, N=4, strict k=13, documented default seeds) for validating
   generator output against external suites.

Checked-in golden values must only ever come from the official tool or
from NIST's published outputs of it.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ciprng import stats  # noqa: E402
from ciprng.func import VectorOfImages  # noqa: E402
from ciprng.generator import CiGenerator, GeneratorConfig  # noqa: E402
from ciprng.sources import DEFAULT_BIT_SEED, DEFAULT_COORD_SEED, Xorshift64  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "nist_sts_golden.json"
FIRST_VARIANT = (14, 15, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)


def e_expansion_bits(count: int) -> str:
    mpmath.mp.prec = count + 64
    _, mantissa, _, _ = mpmath.mpf(mpmath.e)._mpf_
    bits = bin(mantissa)[2:][:count]
    assert len(bits) == count
    return bits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emit-stream", metavar="DIR", help="write stream files to DIR")
    parser.add_argument(
        "--generator", action="store_true",
        help="also emit a generator-produced 10^6-bit stream",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify the checked-in golden stream fingerprint, print this "
             "package's p-values next to the golden ones, and exit 1 if any "
             "differs from its golden value by more than the golden tolerance",
    )
    args = parser.parse_args()

    golden = json.loads(GOLDEN_PATH.read_text())
    bits = e_expansion_bits(golden["stream"]["length"])
    digest = hashlib.sha256(bits.encode()).hexdigest()
    if digest != golden["stream"]["sha256_ascii"]:
        print(f"stream fingerprint mismatch: {digest}", file=sys.stderr)
        return 1

    if args.emit_stream:
        outdir = Path(args.emit_stream)
        outdir.mkdir(parents=True, exist_ok=True)
        stats.export_stream(bits, "ascii-01", outdir / "e_bits.txt")
        stats.export_stream(bits, "raw-bytes", outdir / "e_bits.bin")
        print(f"wrote {outdir / 'e_bits.txt'} and {outdir / 'e_bits.bin'}")
        if args.generator:
            gen = CiGenerator(
                GeneratorConfig(VectorOfImages(4, FIRST_VARIANT), k=13, seed_state=0),
                Xorshift64(DEFAULT_BIT_SEED),
                Xorshift64(DEFAULT_COORD_SEED),
            )
            stream = gen.bit_stream(250_000)
            stats.export_stream(stream, "ascii-01", outdir / "generator_bits.txt")
            stats.export_stream(stream, "raw-bytes", outdir / "generator_bits.bin")
            print(f"wrote {outdir / 'generator_bits.txt'} and {outdir / 'generator_bits.bin'}")

    if args.check:
        cfg = stats.BatteryConfig(
            block_size=golden["battery_config"]["block_size"],
            serial_block=golden["battery_config"]["serial_block"],
            apen_block=golden["battery_config"]["apen_block"],
        )
        report = stats.run_battery(bits, cfg)
        flat = {}
        for result in report.results:
            if result.sub_results:
                for sub in result.sub_results:
                    flat[f"{result.name}/{sub.name}"] = sub.p_value
            else:
                flat[result.name] = result.p_value
        print(f"{'test':32s} {'computed':>12s} {'golden':>12s}")
        for name, value in golden["p_values"].items():
            print(f"{name:32s} {flat[name]:12.6f} {value:12.6f}")
        off = [name for name, value in golden["p_values"].items() if abs(flat[name] - value) > golden["tolerance"]]
        if off:
            print(f"p-values beyond the tolerance of {golden['tolerance']}: {', '.join(off)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
