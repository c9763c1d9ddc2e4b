import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import ciprng
from ciprng import cli, func, generator, graph, stats
from ciprng.errors import ScriptExhaustedError
from ciprng.generator import CiGenerator, GeneratorConfig
from ciprng.sources import ScriptedSource, Xorshift64

from reference_data import (
    KNOWN_CHAOTIC_VARIANTS,
    TRACE_BINARY_WITH_SEED,
    TRACE_IMAGES,
)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.fn"
    func.write_function(func.VectorOfImages(4, TRACE_IMAGES), path)
    return str(path)


def sixteen_bit_variant():
    """The negation at N=16 after four paired edits on disjoint pairs."""
    f = func.negation(16)
    for j, i in ((1, 1), (5, 2), (100, 16), (40000, 9)):
        f = func.mutate_pair(f, j, i)
    return f


def sixteen_bit_unbalanced():
    """The N=16 negation with digit 3 of f(0) flipped: row 3 repeats state 0."""
    images = list(func.negation(16).images)
    images[0] ^= 1 << 13
    return func.VectorOfImages(16, images)


def dense_function(n_bits):
    """Seeded random images: a function far from the negation."""
    rnd = np.random.default_rng(n_bits)
    return func.VectorOfImages(n_bits, rnd.integers(0, 1 << n_bits, 1 << n_bits).tolist())


@pytest.fixture
def variant_file(tmp_path):
    path = tmp_path / "variant.fn"
    func.write_function(func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[2]), path)
    return str(path)


class TestGen:
    def test_scripted_golden_trace(self, trace_file, capsys):
        rc = cli.main(
            [
                "gen",
                "--function", trace_file,
                "--k", "4",
                "--compat",
                "--seed-state", "0b0100",
                "--prng1-script", "0,1,0",
                "--prng2-script", "2,4,2,3,4,1,1,4,4,3,2,3,3",
                "--rounds", "3",
                "--include-seed",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == TRACE_BINARY_WITH_SEED + "\n"

    def test_strict_mode_rejects_small_k(self, trace_file, capsys):
        rc = cli.main(
            ["gen", "--function", trace_file, "--k", "4", "--rounds", "1",
             "--prng1-script", "0", "--prng2-script", "1,1,1,1"]
        )
        assert rc == 2
        assert "k > 3N" in capsys.readouterr().err

    def test_default_k_is_strict(self, capsys):
        rc = cli.main(["gen", "--n-bits", "4", "--rounds", "4"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 16 and set(out) <= {"0", "1"}

    def test_bytes_output_to_file(self, tmp_path):
        out = tmp_path / "stream.bin"
        rc = cli.main(
            ["gen", "--n-bits", "4", "--seed-state", "0", "--prng1-seed", "0x2545F4914F6CDD1D",
             "--prng2-seed", "99", "--bytes", "64", "--output", str(out)]
        )
        assert rc == 0
        data = out.read_bytes()
        assert len(data) == 64
        gen = CiGenerator(
            GeneratorConfig(func.negation(4), k=13, seed_state=0),
            Xorshift64(0x2545F4914F6CDD1D),
            Xorshift64(99),
        )
        assert data == gen.byte_stream(64)

    def test_function_file_at_sixteen_bits(self, tmp_path):
        f = sixteen_bit_variant()
        path, out = tmp_path / "v16.fn", tmp_path / "stream.bin"
        func.write_function(f, path)
        rc = cli.main(["gen", "--function", str(path), "--seed-state", "0x1234", "--prng1-seed", "7",
                       "--prng2-seed", "99", "--bytes", "4096", "--output", str(out)])
        assert rc == 0
        gen = CiGenerator(GeneratorConfig(f, k=49, seed_state=0x1234), Xorshift64(7), Xorshift64(99))
        assert out.read_bytes() == gen.byte_stream(4096)

    def test_seed_and_script_conflict(self, capsys):
        rc = cli.main(
            ["gen", "--n-bits", "4", "--prng1-seed", "5", "--prng1-script", "0,1",
             "--rounds", "1"]
        )
        assert rc == 2

    def test_n_bits_conflicts_with_function_width(self, trace_file, capsys):
        rc = cli.main(["gen", "--function", trace_file, "--n-bits", "5", "--rounds", "1"])
        assert rc == 2

    def test_script_from_file(self, trace_file, tmp_path, capsys):
        s1 = tmp_path / "bits.txt"
        s1.write_text("0,1,0")
        s2 = tmp_path / "coords.txt"
        s2.write_text("2,4,2,3,4,1,1,4,4,3,2,3,3")
        rc = cli.main(
            ["gen", "--function", trace_file, "--k", "4", "--compat",
             "--seed-state", "4", "--prng1-script", f"@{s1}", "--prng2-script", f"@{s2}",
             "--rounds", "3", "--include-seed"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == TRACE_BINARY_WITH_SEED

    def test_include_seed_requires_rounds(self, capsys):
        rc = cli.main(["gen", "--n-bits", "4", "--bytes", "8", "--include-seed"])
        assert rc == 2

    def test_rounds_and_bytes_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--n-bits", "4", "--rounds", "1", "--bytes", "1"])
        assert exc.value.code == 2


class TestGenPieces:
    """gen writes one block's rounds a piece, and the pieces join into one call's stream."""

    @staticmethod
    def recorded(monkeypatch):
        """The generators that cli.main builds from now on, and the sizes of their stream calls."""
        made, calls = [], []

        class Recorded(CiGenerator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def byte_stream(self, n_bytes):
                calls.append(n_bytes)
                return super().byte_stream(n_bytes)

            def bit_stream(self, n_rounds, include_seed=False):
                calls.append(n_rounds)
                return super().bit_stream(n_rounds, include_seed)

        monkeypatch.setattr(cli, "CiGenerator", Recorded)
        return made, calls

    # rounds a block holds under the patched budget: 43 gives pieces of 40
    # rounds; 3, and 0 (one round exceeds the budget, so round() runs), 8
    @pytest.mark.parametrize("block, piece", [(43, 40), (3, 8), (0, 8)])
    # 2, 8 and 16 pack their states into bytes directly, the others by bits
    @pytest.mark.parametrize("n_bits", [2, 3, 5, 8, 12, 16])
    def test_pieces_equal_one_call(self, monkeypatch, tmp_path, capsysbinary, n_bits, block, piece):
        k = 3 * n_bits + 1
        monkeypatch.setattr(generator, "_BLOCK_UPDATES", block * (k + 1))
        config = GeneratorConfig(func.negation(n_bits) if n_bits == 16 else dense_function(n_bits), k=k, seed_state=1)
        path = tmp_path / "f.fn"
        func.write_function(config.f, path)
        count = 1001  # ends in a partial piece, whatever the piece
        modes = [(["--bytes", str(count)], piece * n_bits // 8, lambda gen: gen.byte_stream(count))]
        for seed in (False, True):
            modes.append((["--rounds", str(count)] + ["--include-seed"] * seed, piece,
                          lambda gen, seed=seed: (gen.bit_stream(count, include_seed=seed) + "\n").encode()))
        for flags, size, one_call in modes:
            for output in (tmp_path / "out", None):
                made, calls = self.recorded(monkeypatch)
                argv = ["gen", "--function", str(path), "--seed-state", "1", "--prng1-seed", "5",
                        "--prng2-seed", "6", *flags] + (["--output", str(output)] if output else [])
                assert cli.main(argv) == 0
                written = output.read_bytes() if output else capsysbinary.readouterr().out
                one = CiGenerator(config, Xorshift64(5), Xorshift64(6))
                assert written == one_call(one), (flags, output)
                assert calls == [size] * (count // size) + [count % size]
                (gen,) = made
                assert (gen.prng1.state, gen.prng2.state) == (one.prng1.state, one.prng2.state)
                assert (gen.x, gen.rounds_emitted) == (one.x, one.rounds_emitted)

    def test_source_running_out_keeps_the_pieces_written(self, monkeypatch, tmp_path, capsys):
        # blocks of 9 rounds, pieces of 8: the bits run out in the third piece
        monkeypatch.setattr(generator, "_BLOCK_UPDATES", 9 * 14)
        bits = [1, 0, 1] * 7  # 21 rounds
        coords = [1, 2, 3, 4] * 100
        out = tmp_path / "out"
        rc = cli.main(["gen", "--n-bits", "4", "--prng1-script", ",".join(map(str, bits)),
                       "--prng2-script", ",".join(map(str, coords)), "--rounds", "100",
                       "--output", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)
        one = CiGenerator(config, ScriptedSource(bits), ScriptedSource(coords))
        assert out.read_text() == one.bit_stream(16)
        with pytest.raises(ScriptExhaustedError):
            one.bit_stream(8)

    def test_memory_does_not_grow_with_output(self):
        # peak RSS of each child from os.wait4 in a bare interpreter, whose
        # own peak, unlike this process's, the child's reading cannot exceed
        def start(n_bytes):
            gen = [*CIPRNG, "gen", "--n-bits", "4", "--bytes", str(n_bytes)]
            return subprocess.Popen([sys.executable, "-c", PEAK_RSS, *gen], stdout=subprocess.PIPE,
                                    text=True, env=module_env())

        children = [start(16 << 20), start(64 << 20)]
        (rc16, kib16), (rc64, kib64) = (map(int, child.communicate()[0].split()) for child in children)
        assert rc16 == rc64 == 0
        assert kib16 < 64 << 10
        assert abs(kib64 - kib16) < 5 << 10


class TestVerify:
    def test_chaotic_variant_passes(self, variant_file, capsys):
        rc = cli.main(["verify", variant_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "balanced: yes" in out and "chaotic: yes" in out

    def test_identity_fails_chaos(self, tmp_path, capsys):
        path = tmp_path / "id.fn"
        func.write_function(func.identity(4), path)
        rc = cli.main(["verify", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "chaotic: no" in out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.fn"
        path.write_text("2\n0 1 2\n")
        rc = cli.main(["verify", str(path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_porcelain_keys(self, variant_file, capsys):
        rc = cli.main(["verify", variant_file, "--porcelain"])
        assert rc == 0
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
        )
        assert lines == {
            "balanced": "yes",
            "balance-rule": "accept",
            "chaotic": "yes",
            "scc-count": "1",
        }

    def test_porcelain_at_thirteen_bits(self, tmp_path, capsys):
        # verify reads every width the generator accepts
        path = tmp_path / "neg13.fn"
        func.write_function(func.negation(13), path)
        rc = cli.main(["verify", str(path), "--porcelain"])
        assert rc == 0
        lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert lines["chaotic"] == "yes"
        assert lines["scc-count"] == "1"

    @pytest.mark.parametrize(
        "make, rc_want, balanced, rule",
        [(sixteen_bit_variant, 0, "yes", "accept"), (sixteen_bit_unbalanced, 1, "no", "reject")],
    )
    def test_porcelain_at_sixteen_bits(self, tmp_path, capsys, make, rc_want, balanced, rule):
        path = tmp_path / "f16.fn"
        func.write_function(make(), path)
        rc = cli.main(["verify", str(path), "--porcelain"])
        assert rc == rc_want
        lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert lines == {"balanced": balanced, "balance-rule": rule, "chaotic": "yes", "scc-count": "1"}


class TestSearch:
    def test_zero_mutations(self, capsys):
        rc = cli.main(["search", "--n-bits", "2", "--max-mutations", "0"])
        assert rc == 0
        assert capsys.readouterr().out == "3 2 1 0\n"

    def test_width_2_exhaustive(self, capsys):
        rc = cli.main(["search", "--n-bits", "2", "--max-mutations", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 7
        assert lines[0] == "3 2 1 0"

    def test_candidate_cap_exits_2(self, capsys):
        rc = cli.main(
            ["search", "--n-bits", "4", "--max-mutations", "8", "--max-candidates", "50"]
        )
        assert rc == 2

    def test_candidate_cap_below_one_exits_2_before_output(self, capsys):
        rc = cli.main(
            ["search", "--n-bits", "2", "--max-mutations", "1", "--max-candidates", "0"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_candidates" in captured.err


class TestGraph:
    def test_negation_to_stdout(self, capsys):
        rc = cli.main(["graph", "--n-bits", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph iteration_graph {")
        assert out.count("->") == 8

    def test_function_file_to_output(self, variant_file, tmp_path):
        out = tmp_path / "g.dot"
        rc = cli.main(["graph", "--function", variant_file, "--output", str(out)])
        assert rc == 0
        assert out.read_text().count("->") == 64

    def test_bytes_are_export_dot(self, tmp_path, capsysbinary):
        out = tmp_path / "g.dot"
        assert cli.main(["graph", "--n-bits", "12", "--output", str(out)]) == 0
        dot = graph.export_dot(graph.build_graph(func.negation(12))).encode("ascii")
        assert out.read_bytes() == dot
        assert cli.main(["graph", "--n-bits", "12"]) == 0
        assert capsysbinary.readouterr().out == dot


class TestTest:
    def test_all_zeros_reports_monobit_fail(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0" * 100_000 + "\n")
        rc = cli.main(["test", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert any(
            line.startswith("frequency") and "FAIL" in line for line in out.splitlines()
        )

    def test_generator_stream_passes(self, tmp_path, capsys):
        f = func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[0])
        gen = CiGenerator(
            GeneratorConfig(f, k=13, seed_state=0), Xorshift64(101), Xorshift64(202)
        )
        path = tmp_path / "stream.txt"
        path.write_text(gen.bit_stream(50_000) + "\n")
        rc = cli.main(["test", str(path), "--apen-block", "8", "--porcelain"])
        out = capsys.readouterr().out
        assert rc == 0
        assert all("PASS" in line for line in out.strip().splitlines())

    def test_raw_format_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 131072, dtype=np.uint8)
        raw = tmp_path / "stream.bin"
        np.packbits(bits).tofile(raw)
        rc = cli.main(["test", str(raw), "--stream-format", "raw", "--porcelain"])
        assert rc == 0
        porcelain = capsys.readouterr().out
        assert len(porcelain.strip().splitlines()) == 11

    def test_alpha_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = tmp_path / "s.txt"
        path.write_text("".join(map(str, rng.integers(0, 2, 100_000))) + "\n")
        rc = cli.main(["test", str(path), "--alpha", "0.5"])
        assert rc in (0, 1)  # exit reflects the stricter threshold
        out = capsys.readouterr().out
        assert "significance: 0.5" in out

    def test_no_flags_runs_the_default_config(self, tmp_path, monkeypatch, capsys):
        seen = []
        run_battery = stats.run_battery

        def spy(bits, config):
            seen.append(config)
            return run_battery(bits, config)

        monkeypatch.setattr(stats, "run_battery", spy)
        path = tmp_path / "s.txt"
        path.write_text("".join(map(str, np.random.default_rng(5).integers(0, 2, 100_000))) + "\n")
        assert cli.main(["test", str(path)]) in (0, 1)
        assert seen == [stats.BatteryConfig()]

    def test_missing_file_exits_2(self, capsys):
        rc = cli.main(["test", "/nonexistent/stream.txt"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--serial-block", "--apen-block"])
    @pytest.mark.parametrize("block", [10**5, 10**20])
    def test_a_block_no_stream_reaches_exits_2(self, tmp_path, capsys, flag, block):
        path = tmp_path / "s.txt"
        path.write_text("01" * 50_000 + "\n")
        rc = cli.main(["test", str(path), flag, str(block)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"block {block} is too large" in err


class TestParserReuse:
    """main parses with one parser per process, and no call leaks into the next."""

    def test_calls_see_their_own_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--n-bits", "4", "--rounds", "1", "--bytes", "1"])
        assert exc.value.code == 2
        assert cli.main(["gen", "--n-bits", "4", "--rounds", "2", "--include-seed"]) == 0
        capsys.readouterr()
        assert cli.main(["gen", "--n-bits", "4", "--rounds", "2"]) == 0
        expected = CiGenerator(
            GeneratorConfig(func.negation(4), k=13, seed_state=0),
            Xorshift64(ciprng.sources.DEFAULT_BIT_SEED),
            Xorshift64(ciprng.sources.DEFAULT_COORD_SEED),
        ).bit_stream(2)
        assert capsys.readouterr().out == expected + "\n"

    def test_parser_is_built_once(self, monkeypatch, capsys):
        calls = []
        build_parser = cli.build_parser

        def counted():
            calls.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in (["gen", "--n-bits", "4", "--rounds", "1"],
                     ["search", "--n-bits", "2", "--max-mutations", "0"],
                     ["graph", "--n-bits", "2"]):
            assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


CIPRNG = [sys.executable, "-m", "ciprng"]
# run in a bare interpreter: the exit status and peak RSS (KiB) of one child
PEAK_RSS = (
    "import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(child.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def module_env():
    """The environment of a child process that imports the package under test."""
    src = str(Path(ciprng.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_module(*args):
    """Run `python -m ciprng` in a child process that imports the package under test."""
    return subprocess.run([*CIPRNG, *args], capture_output=True, text=True, env=module_env())


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("search", "--n-bits", "2", "--max-mutations", "0")
        assert proc.returncode == 0
        assert proc.stdout == "3 2 1 0\n"

    def test_usage_error_is_2(self):
        proc = run_module("bogus")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--n-bits", "4", "--bytes", "4000000"],
         ["search", "--n-bits", "4", "--max-mutations", "8"],
         ["graph", "--n-bits", "12"]],
    )
    def test_reader_closing_stdout_early_ends_quietly(self, argv):
        # each writes far more than a pipe holds, so a write meets the closed end
        with subprocess.Popen([*CIPRNG, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=module_env()) as child:
            head = child.stdout.read(16)
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (0, b"")
        assert len(head) == 16
