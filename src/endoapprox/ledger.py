"""Named positive rational constants with provenance.

Every implicit multiplicative constant in the library is a concrete
rational recorded here, together with the formula it came from and the
inputs that produced it, so reports can show exactly which bound was
checked and why it is valid.
"""

from __future__ import annotations

from fractions import Fraction


class LedgerError(KeyError):
    pass


_set = object.__setattr__


class LedgerEntry:
    """One positive constant with its formula and inputs.  Immutable."""

    __slots__ = ("name", "value", "formula", "inputs")

    def __init__(self, name: str, value: Fraction, formula: str, inputs: tuple[tuple[str, str], ...] = ()):
        if value <= 0:
            raise ValueError(f"ledger constant {name} must be positive, got {value}")
        _set(self, "name", name)
        _set(self, "value", value)
        _set(self, "formula", formula)
        _set(self, "inputs", inputs)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return (self.name, self.value, self.formula, self.inputs)

    def __eq__(self, other):
        if other.__class__ is not LedgerEntry:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class ConstantLedger:
    """The constants by name; `define` adds one."""

    def __init__(self, entries: dict[str, LedgerEntry] | None = None):
        self.entries = {} if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not ConstantLedger:
            return NotImplemented
        return self.entries == other.entries

    def define(self, name: str, value: Fraction, formula: str, **inputs) -> LedgerEntry:
        entry = LedgerEntry(
            name=name,
            value=Fraction(value),
            formula=formula,
            inputs=tuple(sorted((k, str(v)) for k, v in inputs.items())),
        )
        self.entries[name] = entry
        return entry

    def value(self, name: str) -> Fraction:
        try:
            return self.entries[name].value
        except KeyError:
            raise LedgerError(f"no ledger constant named {name!r}") from None

    def to_jsonable(self) -> dict:
        return {
            name: {
                "value": {"num": str(e.value.numerator), "den": str(e.value.denominator)},
                "formula": e.formula,
                "inputs": {k: v for k, v in e.inputs},
            }
            for name, e in sorted(self.entries.items())
        }


def op_constant_sq(ledger: ConstantLedger, ncols: int) -> Fraction:
    """h(phi(x)) <= op_constant_sq * |phi|^2 * h(x) for ncols source slots."""
    return ledger.value("c_sub_sq") * Fraction(max(ncols, 1)) ** 2
