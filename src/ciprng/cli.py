"""Command-line front end.

Subcommands: `gen` (emit a stream), `verify` (balance and chaos checks on
a function file), `search` (enumerate balanced functions), `graph` (DOT
export), `test` (statistical battery on a stream file).

Exit codes: 0 success or all checks passed, 1 a verification or
statistical test failed, 2 usage, parse, or I/O error.  A reader that
closes stdout early ends `gen`, `search` and `graph` with 0 and nothing on
stderr, as if they had run to their end; `verify` and `test`, whose status
is a verdict, report it as an I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import func, graph, stats
from .errors import CiprngError
from .generator import CiGenerator, GeneratorConfig
from .sources import (
    DEFAULT_BIT_SEED,
    DEFAULT_COORD_SEED,
    ScriptedSource,
    Xorshift64,
    parse_script,
    parse_seed,
)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ciprng command line."""
    parser = argparse.ArgumentParser(
        prog="ciprng",
        description="Chaotic-iteration PRNG toolkit: generate, verify, search, test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a pseudo-random stream")
    gen.add_argument("--n-bits", type=int, help="state width N (default: from --function)")
    gen.add_argument("--function", metavar="FILE", help="function file (default: negation)")
    gen.add_argument("--k", type=int, help="round-length base (default: 3N + 1)")
    gen.add_argument(
        "--compat",
        action="store_true",
        help="allow k <= 3N (strict mode, the default, rejects it)",
    )
    gen.add_argument("--seed-state", default="0", help="initial state (decimal or 0x hex)")
    gen.add_argument("--prng1-seed", default=None, help="bit-source seed (decimal or 0x hex)")
    gen.add_argument("--prng2-seed", default=None, help="coordinate-source seed")
    gen.add_argument(
        "--prng1-script", default=None,
        help="replay bits from a comma-separated list, or @FILE",
    )
    gen.add_argument(
        "--prng2-script", default=None,
        help="replay coordinates from a comma-separated list, or @FILE",
    )
    count = gen.add_mutually_exclusive_group(required=True)
    count.add_argument("--rounds", type=int, help="emit this many rounds as ASCII '0'/'1' bits")
    count.add_argument("--bytes", type=int, dest="n_bytes", help="emit this many raw bytes")
    gen.add_argument(
        "--include-seed", action="store_true",
        help="prepend the seed state's bits (ASCII output only)",
    )
    gen.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")

    verify = sub.add_parser("verify", help="check a function for balance and chaos")
    verify.add_argument("function_file")
    verify.add_argument("--porcelain", action="store_true", help="tab-separated output")

    search = sub.add_parser("search", help="enumerate balanced functions by paired edits")
    search.add_argument("--n-bits", type=int, required=True)
    search.add_argument("--max-mutations", type=int, required=True)
    search.add_argument("--require-chaos", action="store_true",
                        help="keep only functions with strongly connected graphs")
    search.add_argument("--max-candidates", type=int, default=1_000_000, metavar="COUNT",
                        help="exit with status 2 on reaching a candidate beyond the first "
                             "COUNT; candidates are the matchings of the N-cube, the "
                             "negation included (COUNT >= 1)")

    gr = sub.add_parser("graph", help="export an iteration graph as DOT")
    src = gr.add_mutually_exclusive_group(required=True)
    src.add_argument("--function", metavar="FILE")
    src.add_argument("--n-bits", type=int, help="use the negation of this width")
    gr.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")

    test = sub.add_parser("test", help="run the statistical battery on a stream file")
    test.add_argument("input")
    test.add_argument("--stream-format", choices=["ascii", "raw"], default="ascii")
    defaults = stats.BatteryConfig()
    test.add_argument(
        "--alpha", type=float, default=defaults.significance, help="significance level"
    )
    test.add_argument("--block-size", type=int, default=defaults.block_size)
    test.add_argument("--serial-block", type=int, default=defaults.serial_block)
    test.add_argument("--apen-block", type=int, default=defaults.apen_block)
    test.add_argument("--porcelain", action="store_true", help="name<TAB>p<TAB>PASS|FAIL lines")

    return parser


def _load_function(args) -> func.VectorOfImages:
    if args.function is not None:
        f = func.read_function(args.function)
        if args.n_bits is not None and args.n_bits != f.n_bits:
            raise CiprngError(
                f"--n-bits {args.n_bits} conflicts with function width {f.n_bits}"
            )
        return f
    if args.n_bits is None:
        raise CiprngError("one of --function or --n-bits is required")
    return func.negation(args.n_bits)


def _make_source(seed_text, script_text, default_seed):
    if script_text is not None and seed_text is not None:
        raise CiprngError("give either a seed or a script for a source, not both")
    if script_text is not None:
        if script_text.startswith("@"):
            script_text = Path(script_text[1:]).read_text(encoding="ascii").strip()
        return ScriptedSource(parse_script(script_text))
    return Xorshift64(parse_seed(seed_text) if seed_text is not None else default_seed)


def _cmd_gen(args) -> int:
    f = _load_function(args)
    k = args.k if args.k is not None else 3 * f.n_bits + 1
    config = GeneratorConfig(f, k=k, seed_state=int(args.seed_state, 0), strict=not args.compat)
    prng1 = _make_source(args.prng1_seed, args.prng1_script, DEFAULT_BIT_SEED)
    prng2 = _make_source(args.prng2_seed, args.prng2_script, DEFAULT_COORD_SEED)
    gen = CiGenerator(config, prng1, prng2)
    if args.rounds is not None:
        if args.rounds < 1:
            raise CiprngError(f"--rounds must be >= 1, got {args.rounds}")
    elif args.include_seed:
        raise CiprngError("--include-seed applies to --rounds output only")
    elif args.n_bytes < 1:
        raise CiprngError(f"--bytes must be >= 1, got {args.n_bytes}")
    _write(args.output, _gen_pieces(gen, args))
    return 0


def _gen_pieces(gen: CiGenerator, args):
    """The stream of `gen`, one block's rounds a piece.

    A piece is a multiple of 8 rounds, so whole bytes at any N, and one
    byte_stream or bit_stream call; the seed goes on the first piece only
    and the last takes what is left.  The pieces join into the stream of
    one call, and leave both sources where that call would.
    """
    rounds = max(8, gen.block_rounds // 8 * 8)
    if args.rounds is None:
        size = rounds * gen.config.f.n_bits // 8
        for start in range(0, args.n_bytes, size):
            yield gen.byte_stream(min(size, args.n_bytes - start))
        return
    for start in range(0, args.rounds, rounds):
        seed = args.include_seed and start == 0
        yield gen.bit_stream(min(rounds, args.rounds - start), include_seed=seed).encode("ascii")
    yield b"\n"


def _write(output, chunks) -> None:
    """Write chunks of bytes to the file `output`, opened once, or to stdout."""
    if output:
        with open(output, "wb") as sink:
            sink.writelines(chunks)
    else:
        sys.stdout.buffer.writelines(chunks)


def _cmd_verify(args) -> int:
    f = func.read_function(args.function_file)
    rule = func.balance_rule_check(f)
    oracle = func.is_balanced(f)
    chaos = graph.is_strongly_connected(graph.build_graph(f))
    if args.porcelain:
        sys.stdout.write(f"balanced\t{'yes' if oracle.balanced else 'no'}\n")
        sys.stdout.write(f"balance-rule\t{'accept' if rule.balanced else 'reject'}\n")
        sys.stdout.write(f"chaotic\t{'yes' if chaos.strongly_connected else 'no'}\n")
        sys.stdout.write(f"scc-count\t{chaos.scc_count}\n")
    else:
        sys.stdout.write(
            f"balanced: {'yes' if oracle.balanced else 'no'} "
            f"(rule: {'accept' if rule.balanced else 'reject'}, "
            f"oracle: {'confirm' if oracle.balanced else 'reject'})\n"
        )
        detail = "" if chaos.strongly_connected else f" ({chaos.scc_count} components)"
        sys.stdout.write(f"chaotic: {'yes' if chaos.strongly_connected else 'no'}{detail}\n")
    return 0 if (oracle.balanced and chaos.strongly_connected) else 1


def _cmd_search(args) -> int:
    found = 0
    for vec in func.search_functions(
        args.n_bits,
        args.max_mutations,
        require_chaos=args.require_chaos,
        max_candidates=args.max_candidates,
    ):
        sys.stdout.write(" ".join(str(v) for v in vec.images) + "\n")
        found += 1
    sys.stderr.write(f"found {found} functions\n")
    return 0


def _cmd_graph(args) -> int:
    f = _load_function(args)
    _write(args.output, [graph.dot_bytes(graph.build_graph(f))])
    return 0


def _cmd_test(args) -> int:
    fmt = "ascii-01" if args.stream_format == "ascii" else "raw-bytes"
    bits = stats.read_stream(args.input, fmt)
    config = stats.BatteryConfig(
        significance=args.alpha,
        block_size=args.block_size,
        serial_block=args.serial_block,
        apen_block=args.apen_block,
    )
    report = stats.run_battery(bits, config)
    sys.stdout.write(report.as_porcelain() if args.porcelain else report.as_text())
    return 0 if report.all_passed else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "graph": _cmd_graph,
    "test": _cmd_test,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` parses with, built on first use.

    Building the parser takes about 1 ms, longer than a short `gen`'s
    own work, and `main` may be called many times in one process.
    Parsing leaves the parser unchanged: each call gets a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return status
    except (CiprngError, ValueError, OSError) as exc:
        stream = args.command in ("gen", "search", "graph") and not getattr(args, "output", None)
        if stream and isinstance(exc, BrokenPipeError):
            # a reader closed stdout early; the interpreter's last flush of it would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
