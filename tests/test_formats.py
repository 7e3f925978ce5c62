import json
import re

import pytest

from asgrs import formats
from asgrs.attack import AttackCounters, AttackReport
from asgrs.generator import AsgKey
from asgrs.gf2 import BitVector

from conftest import make_params, random_valid_key


class TestBitstreams:
    @pytest.mark.parametrize("fmt", ("text", "binary"))
    def test_round_trip(self, tmp_path, fmt, rng):
        bits = [rng.randrange(2) for _ in range(137)]
        path = tmp_path / f"bits.{fmt}"
        formats.write_bits(path, bits, fmt=fmt)
        assert formats.read_bits(path) == bits

    @staticmethod
    def per_bit_file(bits, fmt):
        """The bytes of a bitstream file written one bit at a time."""
        if fmt == "text":
            lines = ["".join(str(b) for b in bits[i:i + 64]) for i in range(0, len(bits), 64)]
            return ("\n".join(lines) + ("\n" if lines else "")).encode()
        payload = bytearray((len(bits) + 7) // 8)
        for t, b in enumerate(bits):
            payload[t >> 3] |= b << (t & 7)
        return b"ASGB" + len(bits).to_bytes(8, "little") + bytes(payload)

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 63, 64, 65, 10 ** 5])
    def test_round_trip_counts(self, tmp_path, count, rng):
        bits = [rng.randrange(2) for _ in range(count)]
        for fmt in ("text", "binary"):
            path = tmp_path / f"bits.{fmt}"
            formats.write_bits(path, bits, fmt=fmt)
            assert path.read_bytes() == self.per_bit_file(bits, fmt)
            assert formats.read_bits(path) == bits

    @pytest.mark.parametrize("fmt", ("text", "binary"))
    def test_empty(self, tmp_path, fmt):
        path = tmp_path / "empty"
        formats.write_bits(path, [], fmt=fmt)
        assert formats.read_bits(path) == []

    def test_formats_agree(self, tmp_path, rng):
        bits = [rng.randrange(2) for _ in range(77)]
        formats.write_bits(tmp_path / "t", bits, fmt="text")
        formats.write_bits(tmp_path / "b", bits, fmt="binary")
        assert formats.read_bits(tmp_path / "t") == formats.read_bits(tmp_path / "b")

    def test_text_whitespace_ignored(self, tmp_path):
        # every ASCII character str.isspace accepts, \x1c-\x1f among them
        (tmp_path / "w").write_text(" 1 0\n\t1\r\n01 \n\x0b1\x0c\x1c0\x1d\x1e\x1f1")
        assert formats.read_bits(tmp_path / "w") == [1, 0, 1, 0, 1, 1, 0, 1]

    def test_text_garbage_rejected(self, tmp_path):
        # the message names the first bad character
        for text, bad in (("0102", "'2'"), ("01 \x1fx1y", "'x'"), ("1\x00", "'\\x00'")):
            (tmp_path / "g").write_text(text)
            with pytest.raises(ValueError, match=re.escape(f"unexpected character {bad}")):
                formats.read_bits(tmp_path / "g")
        # U+0085 is whitespace to str.isspace, but not ASCII
        (tmp_path / "u").write_bytes(b"01\xc2\x850")
        with pytest.raises(ValueError, match="'ascii' codec can't decode byte 0xc2"):
            formats.read_bits(tmp_path / "u")

    def test_binary_truncation_detected(self, tmp_path):
        formats.write_bits(tmp_path / "b", [1] * 64, fmt="binary")
        raw = (tmp_path / "b").read_bytes()
        (tmp_path / "b").write_bytes(raw[:-2])
        with pytest.raises(ValueError):
            formats.read_bits(tmp_path / "b")

    @pytest.mark.parametrize("count, payload, message", [
        (3, b"\x07" + bytes(7), "7 byte(s) past its 3-bit payload"),
        (3, b"\xff" + bytes(7), "past its 3-bit payload"),
        (16, b"\x01\x02\x00", "1 byte(s) past its 16-bit payload"),
        (0, b"\x00", "past its 0-bit payload"),
        (3, b"\x0f", "padding bits past bit 3"),
        (9, b"\x01\x80", "padding bits past bit 9"),
    ], ids=["junk-bytes", "junk-bytes-and-padding", "one-extra-byte", "empty-with-byte",
            "padding-bit-3", "padding-bit-15"])
    def test_binary_excess_rejected(self, tmp_path, count, payload, message):
        path = tmp_path / "b"
        path.write_bytes(b"ASGB" + count.to_bytes(8, "little") + payload)
        with pytest.raises(ValueError, match=re.escape(message)):
            formats.read_bits(path)

    def test_binary_short_header_rejected(self, tmp_path):
        (tmp_path / "b").write_bytes(b"ASGB\x00\x00")
        with pytest.raises(ValueError, match="header truncated"):
            formats.read_bits(tmp_path / "b")

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 15, 16, 17])
    def test_binary_edge_counts_round_trip(self, tmp_path, count):
        bits = [1] * count
        formats.write_bits(tmp_path / "b", bits, fmt="binary")
        assert formats.read_bits(tmp_path / "b") == bits

    def test_binary_layout(self, tmp_path):
        formats.write_bits(tmp_path / "b", [1, 0, 0, 0, 0, 0, 0, 0, 1], fmt="binary")
        raw = (tmp_path / "b").read_bytes()
        assert raw[:4] == b"ASGB"
        assert int.from_bytes(raw[4:12], "little") == 9
        assert raw[12] == 0b00000001 and raw[13] == 0b00000001

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_bits(tmp_path / "x", [1], fmt="base64")

    @pytest.mark.parametrize("fmt", ("text", "binary"))
    @pytest.mark.parametrize("bits, entry", [
        ([2], "entry 0 is 2"), ([0, 1, 3], "entry 2 is 3"),
        ([0, 300], "entry 1 is 300"), ([1.0], "entry 0 is 1.0"),
    ])
    def test_non_bits_refused(self, tmp_path, fmt, bits, entry):
        path = tmp_path / "bits"
        with pytest.raises(ValueError, match=f"{entry}, not 0 or 1"):
            formats.write_bits(path, bits, fmt=fmt)
        assert not path.exists()


class TestJsonFiles:
    def test_params_round_trip(self, tmp_path):
        params = make_params(8, 7, 5)
        formats.write_params(tmp_path / "p.json", params)
        assert formats.read_params(tmp_path / "p.json") == params

    def test_key_round_trip(self, tmp_path, rng):
        params = make_params(5, 5, 7)
        key = random_valid_key(params, rng)
        formats.write_key(tmp_path / "k.json", key)
        assert formats.read_key(tmp_path / "k.json", params) == key

    def test_hex_masks_in_key_file(self, tmp_path):
        params = make_params(3, 3, 4)
        key = AsgKey(BitVector(0b101, 3), BitVector(0b011, 3),
                     BitVector(0b1001, 4), 2, 4)
        formats.write_key(tmp_path / "k.json", key)
        text = (tmp_path / "k.json").read_text()
        assert '"state_a": "0x5"' in text
        assert '"state_c": "0x9"' in text

    def test_report_round_trip(self, tmp_path, rng):
        params = make_params(3, 3, 4)
        report = AttackReport(
            recovered_keys=[random_valid_key(params, rng) for _ in range(2)],
            counters=AttackCounters(8, 20, 5, 2),
            wall_time_seconds=0.25,
        )
        formats.write_report(tmp_path / "r.json", report)
        loaded = formats.read_report(tmp_path / "r.json", params)
        assert loaded.recovered_keys == report.recovered_keys
        assert loaded.counters == report.counters
        assert loaded.wall_time_seconds == report.wall_time_seconds

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "report file"),
        (lambda doc: {k: v for k, v in doc.items() if k != "counters"}, "'counters'"),
        (lambda doc: {**doc, "counters": [1, 2]}, "'counters'"),
        (lambda doc: {**doc, "counters": {**doc["counters"], "bm_runs": "lots"}}, "'bm_runs'"),
        (lambda doc: {**doc, "recovered_keys": {}}, "'recovered_keys'"),
        (lambda doc: {**doc, "wall_time_seconds": "soon"}, "'wall_time_seconds'"),
    ], ids=["list", "no-counters", "counters-list", "string-counter", "keys-object",
            "string-wall-time"])
    def test_malformed_report_names_the_field(self, tmp_path, edit, message):
        report = AttackReport([], AttackCounters(8, 20, 5, 2), 0.25)
        (tmp_path / "r.json").write_text(json.dumps(edit(formats.report_to_dict(report))))
        with pytest.raises(ValueError, match=message):
            formats.read_report(tmp_path / "r.json", make_params(3, 3, 4))

    @pytest.mark.parametrize("reader, what", [
        (formats.read_params, "params file"),
        (lambda path: formats.read_key(path, make_params(3, 3, 4)), "key file"),
        (lambda path: formats.read_report(path, make_params(3, 3, 4)), "report file"),
    ], ids=["params", "key", "report"])
    @pytest.mark.parametrize("text", ["[" * 2000 + "]" * 2000, '{"l": 3', ""],
                             ids=["nested", "truncated", "empty"])
    def test_unreadable_json_names_the_file(self, tmp_path, reader, what, text):
        # 2000 nested lists pass Python's recursion limit inside json.loads
        (tmp_path / "doc.json").write_text(text)
        with pytest.raises(ValueError, match=f"^{what} is not valid JSON: "):
            reader(tmp_path / "doc.json")
