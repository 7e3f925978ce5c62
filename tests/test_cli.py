import dataclasses
import json

import pytest

from asgrs import AsgKey, BitVector, formats
from asgrs.analysis import measure_period
from asgrs.attack import AttackConfig
from asgrs.cli import main
from asgrs.complexity import ComplexityInputs
from asgrs.generator import keystream, reduce_to_classical, validate
from asgrs.gf2 import BinaryPolynomial
from asgrs.oracle import brute_force_oracle

from conftest import make_params


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    formats.write_params(path, make_params(3, 3, 4))
    return str(path)


def run(*argv):
    return main(list(argv))


def assert_reported(capsys, raised):
    """The command printed the library's exception as one line on stderr,
    and nothing else."""
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


class TestKeygen:
    def test_produces_valid_key(self, tmp_path, params_file):
        out = tmp_path / "key.json"
        assert run("keygen", "--params", params_file, "--out", str(out), "--seed", "1") == 0
        params = formats.read_params(params_file)
        key = formats.read_key(out, params)
        assert validate(params, key) == []

    def test_deterministic(self, tmp_path, params_file):
        k1, k2 = tmp_path / "k1.json", tmp_path / "k2.json"
        run("keygen", "--params", params_file, "--out", str(k1), "--seed", "9")
        run("keygen", "--params", params_file, "--out", str(k2), "--seed", "9")
        assert k1.read_bytes() == k2.read_bytes()

    def test_seeds_differ(self, tmp_path, params_file):
        k1, k2 = tmp_path / "k1.json", tmp_path / "k2.json"
        run("keygen", "--params", params_file, "--out", str(k1), "--seed", "1")
        run("keygen", "--params", params_file, "--out", str(k2), "--seed", "2")
        assert k1.read_bytes() != k2.read_bytes()

    def test_strict_gcd_violation_fails(self, tmp_path):
        path = tmp_path / "bad.json"
        formats.write_params(path, make_params(3, 4, 6, strict=False))
        out = tmp_path / "key.json"
        assert run("keygen", "--params", str(path), "--out", str(out)) == 1
        assert run("keygen", "--params", str(path), "--out", str(out), "--no-strict") == 0

    def test_one_cell_register_fails(self, tmp_path, capsys):
        path = tmp_path / "p312.json"
        formats.write_params(path, make_params(3, 1, 2))
        out = tmp_path / "key.json"
        assert run("keygen", "--params", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid params") and "register B" in err
        assert not out.exists()


class TestInvalidParams:
    """Every command that reads params reports their violations alike."""

    @pytest.mark.parametrize("command, argv", [
        ("keygen", []),
        ("keystream", ["--key", "KEY", "--count", "10"]),
        ("attack", ["--in", "Z"]),
        ("oracle", ["--in", "Z"]),
        ("reduce", ["--key", "KEY"]),
    ], ids=["keygen", "keystream", "attack", "oracle", "reduce"])
    def test_non_primitive_poly_b(self, tmp_path, capsys, command, argv):
        # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5 modulo it
        params = dataclasses.replace(make_params(3, 4, 5), poly_b=BinaryPolynomial(0x1F))
        pfile, key, z, out = (tmp_path / name for name in ("p.json", "k.json", "z.txt", "out"))
        formats.write_params(pfile, params)
        formats.write_key(key, AsgKey(BitVector(1, 3), BitVector(1, 4), BitVector(1, 5), 1, 1))
        formats.write_bits(z, [0, 1] * 14)
        argv = [{"KEY": str(key), "Z": str(z)}.get(a, a) for a in argv]
        assert run(command, "--params", str(pfile), *argv, "--out", str(out)) == 1
        assert capsys.readouterr() == (
            "", "error: invalid params: poly_b (x^4 + x^3 + x^2 + x + 1) is not primitive\n")
        assert not out.exists()


class TestKeystream:
    def test_empty_file_valid(self, tmp_path, params_file):
        key = tmp_path / "key.json"
        out = tmp_path / "z.txt"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "3")
        assert run("keystream", "--params", params_file, "--key", str(key),
                   "--count", "0", "--out", str(out)) == 0
        assert formats.read_bits(out) == []

    def test_two_periods_measure_840(self, tmp_path, params_file):
        key = tmp_path / "key.json"
        out = tmp_path / "z.txt"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "4")
        assert run("keystream", "--params", params_file, "--key", str(key),
                   "--count", "1680", "--out", str(out)) == 0
        assert measure_period(formats.read_bits(out)) == 840

    def test_negative_count_fails(self, tmp_path, params_file, capsys):
        key = tmp_path / "key.json"
        out = tmp_path / "z.txt"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "3")
        assert run("keystream", "--params", params_file, "--key", str(key),
                   "--count", "-3", "--out", str(out)) == 1
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_key_fails(self, tmp_path, params_file, capsys):
        key, out = tmp_path / "key.json", tmp_path / "z.txt"
        bad = AsgKey(BitVector(1, 3), BitVector(0, 3), BitVector(1, 4), 1, 1)
        formats.write_key(key, bad)
        with pytest.raises(ValueError) as raised:
            keystream(formats.read_params(params_file), bad, 10)
        assert run("keystream", "--params", params_file, "--key", str(key),
                   "--count", "10", "--out", str(out)) == 1
        assert_reported(capsys, raised)
        assert not out.exists()

    def test_text_binary_agree(self, tmp_path, params_file):
        key = tmp_path / "key.json"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "5")
        t, b = tmp_path / "z.txt", tmp_path / "z.bin"
        run("keystream", "--params", params_file, "--key", str(key),
            "--count", "128", "--format", "text", "--out", str(t))
        run("keystream", "--params", params_file, "--key", str(key),
            "--count", "128", "--format", "binary", "--out", str(b))
        assert formats.read_bits(t) == formats.read_bits(b)


class TestAttackCommand:
    def setup_round_trip(self, tmp_path, l, m, n, count, seed="11"):
        pfile = tmp_path / "p.json"
        formats.write_params(pfile, make_params(l, m, n))
        key = tmp_path / "key.json"
        z = tmp_path / "z.txt"
        run("keygen", "--params", str(pfile), "--out", str(key), "--seed", seed)
        run("keystream", "--params", str(pfile), "--key", str(key),
            "--count", str(count), "--out", str(z))
        return pfile, key, z

    def test_round_trip_recovers(self, tmp_path):
        count = 4 * 12 + 8 + 20
        pfile, keyfile, z = self.setup_round_trip(tmp_path, 8, 7, 5, count)
        report_path = tmp_path / "report.json"
        assert run("attack", "--params", str(pfile), "--in", str(z),
                   "--out", str(report_path)) == 0
        params = formats.read_params(pfile)
        report = formats.read_report(report_path, params)
        assert report.counters.a_states_tried == 256
        true_key = formats.read_key(keyfile, params)
        reference = keystream(params, true_key, count + 1000)
        assert any(keystream(params, k, count + 1000) == reference
                   for k in report.recovered_keys)

    def test_short_keystream_rejected(self, tmp_path, capsys):
        pfile, _, z = self.setup_round_trip(tmp_path, 8, 7, 5, 12)
        with pytest.raises(ValueError, match=r"3\(m\+n\) = 36") as raised:
            AttackConfig(formats.read_params(pfile), formats.read_bits(z))
        assert run("attack", "--params", str(pfile), "--in", str(z)) == 1
        assert_reported(capsys, raised)

    def test_no_key_found_exits_1(self, tmp_path, params_file):
        import random
        from asgrs.oracle import brute_force_oracle
        params = formats.read_params(params_file)
        rng = random.Random(31337)
        while True:
            bits = [rng.randrange(2) for _ in range(30)]
            if not brute_force_oracle(params, bits):
                break
        z = tmp_path / "impossible.txt"
        formats.write_bits(z, bits)
        assert run("attack", "--params", params_file, "--in", str(z)) == 1

    def test_workers_flag(self, tmp_path):
        pfile, keyfile, z = self.setup_round_trip(tmp_path, 3, 3, 4, 59)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("attack", "--params", str(pfile), "--in", str(z),
                   "--out", str(r1), "--workers", "1") == 0
        assert run("attack", "--params", str(pfile), "--in", str(z),
                   "--out", str(r2), "--workers", "2") == 0
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        assert d1["recovered_keys"] == d2["recovered_keys"]
        assert d1["counters"] == d2["counters"]

    def test_report_on_stdout(self, tmp_path, capsys):
        # without --out the report goes to stdout, written as --out writes it
        pfile, _, z = self.setup_round_trip(tmp_path, 3, 3, 4, 59)
        report_path = tmp_path / "report.json"
        code = run("attack", "--params", str(pfile), "--in", str(z), "--out", str(report_path))
        assert code == 0
        assert capsys.readouterr().out == ""
        assert run("attack", "--params", str(pfile), "--in", str(z)) == code
        out = capsys.readouterr().out
        printed, written = json.loads(out), json.loads(report_path.read_text())
        assert out == json.dumps(printed, indent=2, sort_keys=True) + "\n"
        assert printed["recovered_keys"] == written["recovered_keys"]
        assert printed["counters"] == written["counters"]


class TestAnalyze:
    def test_msequence(self, tmp_path, capsys):
        z = tmp_path / "seq.txt"
        formats.write_bits(z, [1, 0, 0, 1, 0, 1, 1] * 2)
        assert run("analyze", "--in", str(z)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["linear_complexity"] == 3
        assert doc["connection_poly"] == "0xb"
        assert doc["period"] == 7


class TestEstimate:
    def test_reference_point(self, tmp_path):
        out = tmp_path / "est.json"
        assert run("estimate", "64", "64", "64", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        table1 = {row["attack"]: row for row in doc["classic_asg_attacks"]}
        assert abs(table1["Edit Distance Correlation"]["complexity_log2"] - 135) <= 0.5
        table2 = {row["attack"]: row for row in doc["asg_rs_attacks"]}
        assert table2["Clock Control Guessing"]["flagged_inconsistent"]
        assert abs(doc["key_recovery_log2"] - 82) <= 0.5

    def test_bad_sizes_fail(self, capsys):
        # lengths past what the float formulas hold, first or last
        huge = 10 ** 400
        for l, m, n in ((1, 64, 64), (1, 3, 4), (huge, 64, 64), (64, 64, huge)):
            with pytest.raises(ValueError) as raised:
                ComplexityInputs(l, m, n)
            assert run("estimate", str(l), str(m), str(n)) == 1
            assert_reported(capsys, raised)


class TestOracle:
    def test_contains_generated_key(self, tmp_path, params_file):
        key = tmp_path / "key.json"
        z = tmp_path / "z.txt"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "21")
        run("keystream", "--params", params_file, "--key", str(key),
            "--count", "24", "--out", str(z))
        out = tmp_path / "keys.json"
        assert run("oracle", "--params", params_file, "--in", str(z),
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        wanted = json.loads(key.read_text())
        assert wanted in doc["keys"]

    def test_no_strict_admits_non_coprime_jump(self, tmp_path):
        # r = 3 shares a factor with B's period 15: the key is valid, and
        # in the oracle's keys, only without the gcd constraints
        pfile, keyfile, z = tmp_path / "p.json", tmp_path / "key.json", tmp_path / "z.txt"
        formats.write_params(pfile, make_params(3, 4, 3))
        key = AsgKey(BitVector(5, 3), BitVector(9, 4), BitVector(3, 3), 3, 2)
        formats.write_key(keyfile, key)
        assert run("keystream", "--params", str(pfile), "--key", str(keyfile),
                   "--count", "30", "--out", str(z), "--no-strict") == 0
        for flag, found in (("--no-strict", True), ("--strict", False)):
            out = tmp_path / f"keys{flag}.json"
            assert run("oracle", "--params", str(pfile), "--in", str(z),
                       "--out", str(out), flag) == 0
            doc = json.loads(out.read_text())
            assert (formats.key_to_dict(key) in doc["keys"]) == found

    def test_cap_refusal(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        formats.write_params(pfile, make_params(8, 7, 5))
        z = tmp_path / "z.txt"
        formats.write_bits(z, [0] * 40)
        with pytest.raises(ValueError, match="cap") as raised:
            brute_force_oracle(formats.read_params(pfile), [0] * 40)
        assert run("oracle", "--params", str(pfile), "--in", str(z)) == 1
        assert_reported(capsys, raised)

    def test_key_cap_refusal(self, tmp_path, capsys):
        # an empty target at (4,3,5) matches all 624,960 keys
        pfile, z = tmp_path / "p.json", tmp_path / "z.txt"
        formats.write_params(pfile, make_params(4, 3, 5))
        formats.write_bits(z, [])
        assert run("oracle", "--params", str(pfile), "--in", str(z)) == 1
        assert "more than 65536 keys match the 0-bit target" in capsys.readouterr().err


class TestReduce:
    def test_equivalence_confirmed(self, tmp_path, params_file, capsys):
        key = tmp_path / "key.json"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "33")
        assert run("reduce", "--params", params_file, "--key", str(key),
                   "--count", "1000") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equivalent"] is True
        assert doc["equivalence_bits_checked"] == 1000

    def test_zero_count_fails(self, tmp_path, params_file, capsys):
        key = tmp_path / "key.json"
        run("keygen", "--params", params_file, "--out", str(key), "--seed", "33")
        assert run("reduce", "--params", params_file, "--key", str(key),
                   "--count", "0") == 1
        captured = capsys.readouterr()
        assert "--count" in captured.err and captured.out == ""

    def test_collapsing_jump_is_domain_failure(self, tmp_path, capsys):
        # r = 5 at m = 4 shrinks the decimated stream below full length;
        # without the strict gcd checks the reduction has to refuse
        pfile = tmp_path / "p.json"
        formats.write_params(pfile, make_params(3, 4, 3))
        (tmp_path / "k.json").write_text(json.dumps({
            "state_a": "0x0", "state_b": "0x1", "state_c": "0x1",
            "r": 5, "s": 1}) + "\n")
        params = formats.read_params(pfile, strict=False)
        with pytest.raises(ValueError, match="collapses") as raised:
            reduce_to_classical(params, formats.read_key(tmp_path / "k.json", params))
        assert run("reduce", "--params", str(pfile), "--key",
                   str(tmp_path / "k.json"), "--no-strict") == 1
        assert_reported(capsys, raised)


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["keygen"])
        assert exc.value.code == 2

    def test_missing_file_is_domain_error(self, tmp_path):
        assert run("analyze", "--in", str(tmp_path / "nope.txt")) == 1


GOOD_KEY = {"state_a": "0x0", "state_b": "0x1", "state_c": "0x1", "r": 1, "s": 1}


class TestMalformedInput:
    """Malformed files end in exit 1 and an error line, never a traceback."""

    @pytest.mark.parametrize("doc, message", [
        ([], "JSON object"),
        ("8", "JSON object"),
        ({"l": 3, "m": 3, "n": 4, "poly_a": "0xb", "poly_b": "0xb"}, "poly_c"),
        ({"l": None, "m": 3, "n": 4, "poly_a": "0xb", "poly_b": "0xb", "poly_c": "0x13"},
         "'l'"),
        ({"l": 3.5, "m": 3, "n": 4, "poly_a": "0xb", "poly_b": "0xb", "poly_c": "0x13"},
         "'l'"),
        ({"l": 3, "m": 3, "n": 4, "poly_a": "0xzz", "poly_b": "0xb", "poly_c": "0x13"},
         "'poly_a'"),
        ({"l": 25, "m": 3, "n": 5, "poly_a": "0x2000009", "poly_b": "0xb", "poly_c": "0x25"},
         "invalid params: poly_a degree 25 is above the supported maximum 24"),
    ])
    def test_bad_params_file(self, tmp_path, capsys, doc, message):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(doc))
        assert run("keygen", "--params", str(pfile), "--out", str(tmp_path / "k.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("change, message", [
        ({"r": None}, "'r'"),
        ({"s": "x"}, "'s'"),
        ({"state_b": 2.5}, "'state_b'"),
        ({"state_c": [1]}, "'state_c'"),
        ({"state_a": -1}, "'state_a'"),
        ({"state_b": True}, "'state_b'"),
        ({"state_b": "0xfff"}, "'state_b'"),
        (None, "JSON object"),
    ])
    def test_bad_key_file(self, tmp_path, params_file, capsys, change, message):
        kfile = tmp_path / "k.json"
        kfile.write_text(json.dumps(None if change is None else {**GOOD_KEY, **change}))
        assert run("reduce", "--params", params_file, "--key", str(kfile)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("payload, message", [
        (b"\xff" + bytes(7), "7 byte(s) past its 3-bit payload"),
        (b"\x0d", "padding bits past bit 3"),
    ], ids=["junk-bytes", "padding-bits"])
    def test_bad_binary_bitstream(self, tmp_path, capsys, payload, message):
        bfile = tmp_path / "z.bin"
        bfile.write_bytes(b"ASGB" + (3).to_bytes(8, "little") + payload)
        assert run("analyze", "--in", str(bfile)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv", [
        ("analyze", "--in", "{dir}"),
        ("keygen", "--params", "{dir}", "--out", "{dir}/k.json"),
        ("keygen", "--params", "{params}", "--out", "{dir}"),
    ])
    def test_directory_path(self, tmp_path, params_file, capsys, argv):
        argv = [a.format(dir=tmp_path, params=params_file) for a in argv]
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith("error: cannot open ")
