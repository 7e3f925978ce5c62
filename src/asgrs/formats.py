"""Stable on-disk formats: params/key/report JSON and bitstream files.

Polynomials and register states are serialized as hexadecimal masks
with bit i holding the coefficient of x^i (or cell i), so files are
human-diffable and carry no endianness questions.  Bitstreams come in
two interchangeable forms:

* text: ASCII '0'/'1' with all whitespace ignored on read;
* binary: magic "ASGB", a little-endian 8-byte bit count, then the
  payload packed 8 bits per byte with bit t at byte t//8, position
  t mod 8 counted from the least significant bit.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .attack import AttackCounters, AttackReport
from .generator import AsgKey, AsgParams, require_bits
from .gf2 import _BITS, _DIGITS, BinaryPolynomial, BitVector

BINARY_MAGIC = b"ASGB"


def _hex(mask: int) -> str:
    return f"0x{mask:x}"


def _read_json(path: str | Path, what: str):
    """The JSON document in the file.  Text that is no JSON, and JSON
    nested past the recursion limit, raise ValueError naming `what`."""
    try:
        return json.loads(Path(path).read_text())
    except (RecursionError, ValueError) as e:
        raise ValueError(f"{what} is not valid JSON: {e}") from None


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"missing field {name!r}")
    return doc[name]


def _number(doc: dict, name: str, base: int) -> int:
    """A non-negative integer field: a JSON integer, or a string in `base`."""
    value = number = _field(doc, name)
    if isinstance(value, str):
        try:
            number = int(value, base)
        except ValueError:
            pass
    if isinstance(number, bool) or not isinstance(number, int) or number < 0:
        raise ValueError(f"field {name!r} must be a non-negative integer, not {value!r}")
    return number


def _state(doc: dict, name: str, length: int) -> BitVector:
    mask = _number(doc, name, 16)
    if mask >> length:
        raise ValueError(f"field {name!r} = {doc[name]!r} does not fit {length} cells")
    return BitVector(mask, length)


def write_params(path: str | Path, params: AsgParams):
    doc = {
        "l": params.l,
        "m": params.m,
        "n": params.n,
        "poly_a": _hex(params.poly_a.mask),
        "poly_b": _hex(params.poly_b.mask),
        "poly_c": _hex(params.poly_c.mask),
    }
    write_json(path, doc)


def read_params(path: str | Path, strict: bool = True) -> AsgParams:
    doc = _object(_read_json(path, "params file"), "params file")
    return AsgParams(
        l=_number(doc, "l", 10),
        m=_number(doc, "m", 10),
        n=_number(doc, "n", 10),
        poly_a=BinaryPolynomial(_number(doc, "poly_a", 16)),
        poly_b=BinaryPolynomial(_number(doc, "poly_b", 16)),
        poly_c=BinaryPolynomial(_number(doc, "poly_c", 16)),
        strict=strict,
    )


def key_to_dict(key: AsgKey) -> dict:
    return {
        "state_a": _hex(key.state_a.mask),
        "state_b": _hex(key.state_b.mask),
        "state_c": _hex(key.state_c.mask),
        "r": key.r,
        "s": key.s,
    }


def key_from_dict(doc: dict, params: AsgParams) -> AsgKey:
    doc = _object(doc, "key file")
    return AsgKey(
        state_a=_state(doc, "state_a", params.l),
        state_b=_state(doc, "state_b", params.m),
        state_c=_state(doc, "state_c", params.n),
        r=_number(doc, "r", 10),
        s=_number(doc, "s", 10),
    )


def write_key(path: str | Path, key: AsgKey):
    write_json(path, key_to_dict(key))


def read_key(path: str | Path, params: AsgParams) -> AsgKey:
    return key_from_dict(_read_json(path, "key file"), params)


# the ASCII characters str.isspace accepts, \x1c-\x1f among them
_WHITESPACE = bytes(c for c in range(128) if chr(c).isspace())


def write_bits(path: str | Path, bits: list[int], fmt: str = "text"):
    """Raises ValueError naming the first entry that is not 0 or 1."""
    try:
        raw = bytes(bits)
    except (TypeError, ValueError):  # an entry that is no int in 0 .. 255, named below
        raw = b"\x02"
    if raw.translate(None, b"\x00\x01"):
        require_bits(bits)
    digits = raw.translate(_DIGITS)
    if fmt == "text":
        lines = [digits[i:i + 64] for i in range(0, len(digits), 64)]
        Path(path).write_bytes(b"\n".join(lines) + (b"\n" if lines else b""))
    elif fmt == "binary":
        payload = int(digits[::-1] or b"0", 2).to_bytes((len(bits) + 7) // 8, "little")
        Path(path).write_bytes(BINARY_MAGIC + len(bits).to_bytes(8, "little") + payload)
    else:
        raise ValueError(f"unknown bitstream format {fmt!r}")


def read_bits(path: str | Path) -> list[int]:
    """Reads either bitstream format, sniffing the binary magic."""
    raw = Path(path).read_bytes()
    if raw[:4] == BINARY_MAGIC:
        if len(raw) < 12:
            raise ValueError("binary bitstream header truncated")
        count = int.from_bytes(raw[4:12], "little")
        payload = raw[12:]
        size = (count + 7) // 8
        if len(payload) < size:
            raise ValueError("binary bitstream truncated")
        if len(payload) > size:
            raise ValueError(f"binary bitstream has {len(payload) - size} byte(s) "
                             f"past its {count}-bit payload")
        if count % 8 and payload[-1] >> (count % 8):
            raise ValueError(f"binary bitstream sets padding bits past bit {count}")
        digits = format(int.from_bytes(payload, "little"), f"0{count}b")[::-1][:count]
        return list(digits.encode().translate(_BITS))
    raw.decode("ascii")
    digits = raw.translate(None, _WHITESPACE)
    bad = digits.translate(None, b"01")
    if bad:
        raise ValueError(f"unexpected character {chr(bad[0])!r} in text bitstream")
    return list(digits.translate(_BITS))


def report_to_dict(report: AttackReport) -> dict:
    return {
        "recovered_keys": [key_to_dict(k) for k in report.recovered_keys],
        "counters": asdict(report.counters),
        "wall_time_seconds": report.wall_time_seconds,
    }


def write_report(path: str | Path | None, report: AttackReport):
    write_json(path, report_to_dict(report))


def read_report(path: str | Path, params: AsgParams) -> AttackReport:
    doc = _object(_read_json(path, "report file"), "report file")
    keys = _field(doc, "recovered_keys")
    if not isinstance(keys, list):
        raise ValueError(f"field 'recovered_keys' must hold a JSON list, not {type(keys).__name__}")
    c = _object(_field(doc, "counters"), "field 'counters'")
    counters = AttackCounters(**{f.name: _number(c, f.name, 10) for f in fields(AttackCounters)})
    wall = _field(doc, "wall_time_seconds")
    # NaN fails every comparison, so the range test refuses it too
    if isinstance(wall, bool) or not isinstance(wall, (int, float)) or not 0 <= wall < math.inf:
        raise ValueError(f"field 'wall_time_seconds' must be a non-negative number, not {wall!r}")
    return AttackReport([key_from_dict(d, params) for d in keys], counters, wall)


def write_json(path: str | Path | None, doc: dict):
    """Write doc as indented JSON with sorted keys, to stdout when path is None."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
