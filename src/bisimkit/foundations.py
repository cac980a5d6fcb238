"""Exact arithmetic substrate.

Ordinals below omega^omega in Cantor normal form, eventually periodic
subsets of the naturals, saturating counts in N + {omega}, and helpers
for exact rationals. Everything here is immutable and pure. Beside them
sit `frozen`, which makes a class a value, and `dfs_postorder`, the one
walk over shared structures (formulas, trees, glue, state graphs).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from operator import attrgetter, xor
from typing import Callable, Iterable, Iterator


def frozen(cls: type) -> type:
    """Make cls an immutable value over its annotated fields, in order.

    It behaves as ``@dataclass(frozen=True)`` without importing
    ``dataclasses``, which pulls in ``inspect`` and ``ast`` and builds six
    functions per class: over half of what importing ``bisimkit.cli``
    costs, paid by every CLI call. The compiled ``__init__`` takes
    the fields positionally or by keyword, with the class-level values
    as defaults, then calls ``__post_init__`` if there is one. Values are
    equal when their classes are the same and their fields equal, hash as
    the tuple of their fields and print as ``Name(field=value, ...)``;
    assigning or deleting an attribute raises ``AttributeError``. A
    dunder the class body defines is kept.
    """
    body = vars(cls)
    names = tuple(body.get("__annotations__", ()))
    defaults = {name: body[name] for name in names if name in body}
    params = "".join(f", {n}=_d[{n!r}]" if n in defaults else f", {n}" for n in names)
    steps = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        steps.append("self.__post_init__()")
    namespace = {"_set": object.__setattr__, "_d": defaults}
    statements = "\n    ".join(steps or ["pass"])
    exec(f"def __init__(self{params}):\n    {statements}", namespace)
    get = attrgetter(*names) if names else lambda self: ()
    single = len(names) == 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash((get(self),) if single else get(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    init = namespace["__init__"]
    for method in (init, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        # A body defining __eq__ alone gets __hash__ = None from Python.
        if body.get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


def dfs_postorder(
    roots: Iterable, children: Callable[[object], Iterable], key: Callable | None = None
) -> list:
    """Each node reachable from the roots once, after the nodes it reaches.

    Depth first, taking the roots and each ``children(node)`` in order,
    on an explicit stack, so no depth meets the recursion limit.
    ``key(node)`` tells nodes apart (``id`` for values shared rather than
    hashed); without a key a node is its own. A successor still open
    when a node is listed closes a cycle and is listed after it; every
    other successor is listed before it. ``children(node)`` is called
    when the node is first reached and read one successor at a time, the
    next only once the last one's walk is done, so a generator may check
    and build between its successors (`jsonio.parse_multitree`).
    """
    seen: set = set()
    order: list = []
    stack: list = []
    node, pending = None, iter(roots)  # None stands in for the roots' parent
    while True:
        for sub in pending:
            mark = sub if key is None else key(sub)
            if mark not in seen:
                seen.add(mark)
                stack.append((node, pending))
                node, pending = sub, iter(children(sub))
                break
        else:
            if not stack:
                return order
            order.append(node)
            node, pending = stack.pop()


@frozen
class Ordinal:
    """Ordinal < omega^omega as a CNF term list.

    ``terms`` holds (exponent, coefficient) pairs with exponents strictly
    decreasing and coefficients >= 1; the empty tuple is 0. Comparison is
    lexicographic on the term list, which agrees with ordinal order.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError(f"bad CNF term ({exp},{coeff})")
            if last is not None and exp >= last:
                raise ValueError("CNF exponents must strictly decrease")
            last = exp

    @classmethod
    def from_int(cls, n: int) -> Ordinal:
        if n < 0:
            raise ValueError("ordinals are not negative")
        return cls(((0, n),)) if n else cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return all(exp == 0 for exp, _ in self.terms)

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def __lt__(self, other: Ordinal) -> bool:
        return self.terms < other.terms

    def __le__(self, other: Ordinal) -> bool:
        return self.terms <= other.terms

    def __gt__(self, other: Ordinal) -> bool:
        return self.terms > other.terms

    def __ge__(self, other: Ordinal) -> bool:
        return self.terms >= other.terms

    def __add__(self, other: Ordinal | int) -> Ordinal:
        if isinstance(other, int):
            other = Ordinal.from_int(other)
        if other.is_zero:
            return self
        head = other.terms[0][0]
        # left terms with smaller exponent are absorbed by the right summand
        kept = [t for t in self.terms if t[0] > head]
        merged = list(other.terms)
        if self._coeff_at(head):
            merged[0] = (head, merged[0][1] + self._coeff_at(head))
        return Ordinal(tuple(kept) + tuple(merged))

    def _coeff_at(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def to_json(self) -> list[list[int]]:
        return [[e, c] for e, c in self.terms]

    @classmethod
    def from_json(cls, data: object) -> Ordinal:
        if not isinstance(data, list):
            raise ValueError("ordinal JSON must be a list of [exp, coeff] pairs")
        terms = []
        for item in data:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            ):
                culprit = json.dumps(item, ensure_ascii=False)
                raise ValueError(f"bad ordinal term {culprit}")
            terms.append((item[0], item[1]))
        return cls(tuple(terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            else:
                base = "w" if exp == 1 else f"w^{exp}"
                parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)


ORD_ZERO = Ordinal()
ORD_OMEGA = Ordinal(((1, 1),))


def ordinal_sup(items: Iterable[Ordinal]) -> Ordinal:
    """Least upper bound of finitely many ordinals; sup of nothing is 0."""
    best = ORD_ZERO
    for x in items:
        if x > best:
            best = x
    return best


def _divisors(n: int) -> Iterator[int]:
    for d in range(1, n + 1):
        if n % d == 0:
            yield d


@frozen
class EPSet:
    """Eventually periodic subset of the naturals.

    Membership of n is prefix[n] for n < len(prefix) and then cycles
    through period. Instances are stored in canonical form: the period is
    the minimal eventual period of the characteristic sequence and the
    prefix is as short as possible. Extensional equality therefore
    coincides with structural equality.
    """

    prefix: str = ""
    period: str = "0"

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        for bit in self.prefix + self.period:
            if bit not in "01":
                raise ValueError(f"bits must be 0/1, got {bit!r}")
        pre, per = _canonical(self.prefix, self.period)
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def empty(cls) -> EPSet:
        return cls("", "0")

    @classmethod
    def full(cls) -> EPSet:
        return cls("", "1")

    @classmethod
    def from_finite(cls, elements: Iterable[int]) -> EPSet:
        elems = set(elements)
        if any(n < 0 for n in elems):
            raise ValueError("elements must be naturals")
        if not elems:
            return cls.empty()
        top = max(elems)
        bits = "".join("1" if i in elems else "0" for i in range(top + 1))
        return cls(bits, "0")

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("naturals only")
        if n < len(self.prefix):
            return self.prefix[n] == "1"
        return self.period[(n - len(self.prefix)) % len(self.period)] == "1"

    def __contains__(self, n: int) -> bool:
        return self.member(n)

    @property
    def is_finite(self) -> bool:
        return "1" not in self.period

    @property
    def is_empty(self) -> bool:
        return self.is_finite and "1" not in self.prefix

    def finite_elements(self) -> list[int]:
        """All elements, provided the set is finite."""
        if not self.is_finite:
            raise ValueError("set is infinite")
        return [i for i, bit in enumerate(self.prefix) if bit == "1"]

    def elements_below(self, bound: int) -> list[int]:
        return [n for n in range(bound) if self.member(n)]

    def has_element_geq(self, bound: int) -> bool:
        """Does any element sit at position bound or later?"""
        if "1" in self.period:
            return True
        return "1" in self.prefix[max(bound, 0):]

    def sup_succ(self) -> Ordinal:
        """sup{n+1 | n in the set}: 0, max+1, or omega."""
        if not self.is_finite:
            return ORD_OMEGA
        elems = self.finite_elements()
        return Ordinal.from_int(max(elems) + 1) if elems else ORD_ZERO

    def xor_finite(self, mask: Iterable[int]) -> EPSet:
        """Symmetric difference with a finite set of naturals."""
        flips = set(mask)
        if any(n < 0 for n in flips):
            raise ValueError("mask elements must be naturals")
        if not flips:
            return self
        top = max(flips)
        width = max(len(self.prefix), top + 1)
        bits = [
            ("0", "1")[self.member(n) ^ (n in flips)] for n in range(width)
        ]
        shift = (width - len(self.prefix)) % len(self.period)
        rotated = self.period[shift:] + self.period[:shift]
        return EPSet("".join(bits), rotated)

    def pointwise(self, other: EPSet, op: Callable[[bool, bool], bool]) -> EPSet:
        """The n at which op(n in self, n in other) holds."""
        width = max(len(self.prefix), len(other.prefix))
        cycle = lcm(len(self.period), len(other.period))
        bits = ["01"[op(self.member(n), other.member(n))] for n in range(width + cycle)]
        return EPSet("".join(bits[:width]), "".join(bits[width:]))

    def sym_diff(self, other: EPSet) -> EPSet:
        """Symmetric difference of two eventually periodic sets."""
        return self.pointwise(other, xor)

    def eventually_equal(self, other: EPSet) -> bool:
        """Do the two sets agree from some point on?

        Both characteristic sequences are periodic past the longer prefix,
        so agreement on one full common cycle there decides the question.
        """
        start = max(len(self.prefix), len(other.prefix))
        cycle = lcm(len(self.period), len(other.period))
        return all(
            self.member(n) == other.member(n)
            for n in range(start, start + cycle)
        )

    def encode_finite(self) -> int:
        """Sum of 2^i over the elements; requires a finite set."""
        return sum(1 << i for i in self.finite_elements())

    def to_json(self) -> dict[str, str]:
        return {"prefix": self.prefix, "period": self.period}

    @classmethod
    def from_json(cls, data: object) -> EPSet:
        if (
            not isinstance(data, dict)
            or not isinstance(data.get("prefix"), str)
            or not isinstance(data.get("period"), str)
        ):
            raise ValueError('EPSet JSON must be {"prefix": bits, "period": bits}')
        return cls(data["prefix"], data["period"])

    def __str__(self) -> str:
        return f"{self.prefix}({self.period})*"


def _canonical(prefix: str, period: str) -> tuple[str, str]:
    """Minimal eventual period, then minimal prefix.

    The minimal eventual period divides the stored one, so it is found
    among divisors; a divisor d works exactly when the period string is
    invariant under cyclic shift by d. The prefix then shrinks while its
    last bit already agrees with the value one period later.
    """
    q = len(period)

    def bit(n: int) -> str:
        return prefix[n] if n < len(prefix) else period[(n - len(prefix)) % q]

    d = q
    for cand in _divisors(q):
        if all(period[i] == period[(i + cand) % q] for i in range(q)):
            d = cand
            break
    start = len(prefix)
    while start > 0 and bit(start - 1) == bit(start - 1 + d):
        start -= 1
    new_prefix = "".join(bit(n) for n in range(start))
    new_period = "".join(bit(start + i) for i in range(d))
    return new_prefix, new_period


def nth_modification(base: EPSet, n: int) -> EPSet:
    """Flip the members named by the binary digits of n.

    An involution on eventually periodic sets; n = 0 is the identity.
    """
    if n < 0:
        raise ValueError("modification index must be a natural")
    return base.xor_finite(i for i in range(n.bit_length()) if n >> i & 1)


@frozen
class Count:
    """Multiplicity in N + {omega}; None encodes omega.

    Addition saturates: omega plus anything is omega.
    """

    finite: int | None

    def __post_init__(self) -> None:
        if self.finite is not None and self.finite < 0:
            raise ValueError("counts are not negative")

    @property
    def is_omega(self) -> bool:
        return self.finite is None

    def __add__(self, other: Count) -> Count:
        if self.is_omega or other.is_omega:
            return OMEGA_COUNT
        return Count(self.finite + other.finite)

    def to_json(self) -> int | str:
        return "omega" if self.is_omega else self.finite

    def json_text(self) -> str:
        """``json.dumps(self.to_json())``, without the encoder's overhead."""
        return '"omega"' if self.finite is None else str(self.finite)

    @classmethod
    def from_json(cls, data: object) -> Count:
        if data == "omega":
            return OMEGA_COUNT
        if isinstance(data, int) and not isinstance(data, bool):
            return cls(data)
        culprit = json.dumps(data, ensure_ascii=False)
        raise ValueError(f"count JSON must be an int or \"omega\", got {culprit}")

    def __str__(self) -> str:
        return "omega" if self.is_omega else str(self.finite)


OMEGA_COUNT = Count(None)


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into an exact Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    num_str, slash, den_str = text.partition("/")
    try:
        num = int(num_str)
        den = int(den_str) if slash else 1
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None
    if slash and den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    if den < 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"
