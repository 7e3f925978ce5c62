import json

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
        (tmp_path / "w").write_text(" 1 0\n\t1\r\n01 \n")
        assert formats.read_bits(tmp_path / "w") == [1, 0, 1, 0, 1]

    def test_text_garbage_rejected(self, tmp_path):
        (tmp_path / "g").write_text("0102")
        with pytest.raises(ValueError):
            formats.read_bits(tmp_path / "g")

    def test_binary_truncation_detected(self, tmp_path):
        formats.write_bits(tmp_path / "b", [1] * 64, fmt="binary")
        raw = (tmp_path / "b").read_bytes()
        (tmp_path / "b").write_bytes(raw[:-2])
        with pytest.raises(ValueError):
            formats.read_bits(tmp_path / "b")

    def test_binary_layout(self, tmp_path):
        formats.write_bits(tmp_path / "b", [1, 0, 0, 0, 0, 0, 0, 0, 1], fmt="binary")
        raw = (tmp_path / "b").read_bytes()
        assert raw[:4] == b"ASGB"
        assert int.from_bytes(raw[4:12], "little") == 9
        assert raw[12] == 0b00000001 and raw[13] == 0b00000001

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_bits(tmp_path / "x", [1], fmt="base64")


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
