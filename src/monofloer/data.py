"""Monopole data: graded critical points with integer coefficient systems.

A dataset lists irreducible critical points with integer gradings plus two
coefficient families: n (grading gap 1, with couplings into and out of the
implicit reducible theta at gradings 1 and -2) and m (grading gap 2 between
irreducibles).  Validation enforces the quadratic identities that make the
flavored differentials square to zero; orientation reversal, canonical JSON
serialization, and seeded instance generation round out the model.  Every
result derived from a dataset is memoised in the dataset itself (see
per_dataset), so it is freed together with the dataset.

theta is never listed among the points: it always exists, has grading 0, and
is addressed by the reserved id "theta".
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

THETA = "theta"

__all__ = [
    "THETA",
    "CriticalPoint",
    "MonopoleData",
    "ValidationReport",
    "InvalidInput",
    "ParseError",
    "SchemaError",
    "CheckFailed",
    "validate",
    "per_dataset",
    "reverse_orientation",
    "parse",
    "serialize",
    "curated_instances",
    "invalid_instance",
    "generate_instances",
]


class InvalidInput(Exception):
    """An operation's precondition on its input data does not hold."""


class ParseError(Exception):
    """Malformed document; carries the 1-based line and position."""

    def __init__(self, message: str, line: int, position: int):
        super().__init__(f"{message} (line {line}, position {position})")
        self.line = line
        self.position = position


class SchemaError(ValueError):
    """Well-formed document, or dataset, violating the data schema; names
    the field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class CheckFailed(Exception):
    """A mathematical check failed in one degree.

    values names the two sides that disagree, in report order; it is empty
    when the failure has no pair of values to show."""

    def __init__(self, degree: int, message: str, **values):
        super().__init__(f"degree {degree}: {message}")
        self.degree = degree
        self.values = values


@dataclass(frozen=True)
class CriticalPoint:
    id: str
    grading: int


Coefficient = tuple[str, str, int]


def _n_placement_ok(gr: dict[str, int], src: str, dst: str) -> bool:
    if src == THETA:
        return dst in gr and gr[dst] == -2
    if dst == THETA:
        return src in gr and gr[src] == 1
    return src in gr and dst in gr and gr[src] - gr[dst] == 1

def _m_placement_ok(gr: dict[str, int], src: str, dst: str) -> bool:
    return src in gr and dst in gr and gr[src] - gr[dst] == 2


@dataclass(frozen=True)
class MonopoleData:
    """Immutable dataset in canonical order: points sorted by id, coefficient
    triples sorted by (from, to) with zero values absent."""

    name: str
    points: tuple[CriticalPoint, ...]
    n_coeffs: tuple[Coefficient, ...] = ()
    m_coeffs: tuple[Coefficient, ...] = ()

    def __post_init__(self):
        gr: dict[str, int] = {}
        for p in self.points:
            if not p.id or p.id == THETA:
                raise SchemaError(f"reserved or empty point id: {p.id!r}",
                                  field="id")
            if p.id in gr:
                raise SchemaError(f"duplicate point id: {p.id!r}", field="id")
            gr[p.id] = p.grading
        if list(self.points) != sorted(self.points, key=lambda p: p.id):
            raise SchemaError("points not sorted by id", field="id")
        for label, coeffs, ok in (("n", self.n_coeffs, _n_placement_ok),
                                  ("m", self.m_coeffs, _m_placement_ok)):
            seen = set()
            for (src, dst, value) in coeffs:
                if value == 0:
                    raise SchemaError("stored zero coefficient", field=label)
                if (src, dst) in seen:
                    raise SchemaError(
                        f"duplicate {label} coefficient ({src}, {dst})",
                        field=label)
                seen.add((src, dst))
                if not ok(gr, src, dst):
                    raise SchemaError(
                        f"{label} coefficient ({src}, {dst}) violates the "
                        "grading placement rule", field=label)
            if list(coeffs) != sorted(coeffs):
                raise SchemaError(f"{label} coefficients not sorted",
                                  field=label)
        by_gr: dict[int, list[str]] = {}
        for p in self.points:
            by_gr.setdefault(p.grading, []).append(p.id)
        object.__setattr__(self, "_gr", gr)
        object.__setattr__(self, "_n", {(s, d): v for (s, d, v) in self.n_coeffs})
        object.__setattr__(self, "_m", {(s, d): v for (s, d, v) in self.m_coeffs})
        object.__setattr__(self, "_by_gr", {g: tuple(ids) for g, ids in by_gr.items()})
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_hash", hash(
            (self.name, self.points, self.n_coeffs, self.m_coeffs)))

    def __hash__(self) -> int:
        return self._hash  # frozen fields, hashed once: pairing memo keys

    @classmethod
    def build(cls, name: str,
              points: Iterable[tuple[str, int] | CriticalPoint],
              n: Iterable[Coefficient] = (),
              m: Iterable[Coefficient] = ()) -> "MonopoleData":
        pts = tuple(sorted(
            (p if isinstance(p, CriticalPoint) else CriticalPoint(*p)
             for p in points), key=lambda p: p.id))
        return cls(name, pts,
                   tuple(sorted((s, d, v) for (s, d, v) in n if v)),
                   tuple(sorted((s, d, v) for (s, d, v) in m if v)))

    # -- lookups ------------------------------------------------------------

    def grading_of(self, pid: str) -> int:
        if pid == THETA:
            return 0
        return self._gr[pid]

    def n_value(self, src: str, dst: str) -> int:
        return self._n.get((src, dst), 0)

    def m_value(self, src: str, dst: str) -> int:
        return self._m.get((src, dst), 0)

    def ids_at(self, grading: int) -> tuple[str, ...]:
        return self._by_gr.get(grading, ())


def per_dataset(fn):
    """Memoise fn(data, *args) in the dataset's own dict, keyed by
    (fn, *args), so every derived result lives and dies with its dataset.

    The arguments may be frozen matrices: kernel questions are keyed by
    matrix content, so equal matrices in different degrees share one
    answer.  The dict compares keys exactly, so a hash collision cannot
    return a wrong result."""
    @functools.wraps(fn)
    def memoised(data: MonopoleData, *args):
        key = (fn, *args)
        try:
            return data._memo[key]
        except KeyError:
            value = data._memo[key] = fn(data, *args)
            return value
    return memoised


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, tuple[str, ...], int], ...]


def validate(data: MonopoleData) -> ValidationReport:
    """Check the quadratic identities A, B, B'; the placement rules already
    hold, because MonopoleData rejects a misplaced coefficient."""
    violations: list[tuple[str, tuple[str, ...], int]] = []
    # Identity A between irreducibles two gradings apart
    for a in data.points:
        for c_id in data.ids_at(a.grading - 2):
            value = sum(
                data.n_value(a.id, b_id) * data.n_value(b_id, c_id)
                for b_id in data.ids_at(a.grading - 1))
            if value:
                violations.append(("identity-A", (a.id, c_id), value))
        # theta as target two below grading 2
        if a.grading == 2:
            value = sum(
                data.n_value(a.id, b_id) * data.n_value(b_id, THETA)
                for b_id in data.ids_at(1))
            if value:
                violations.append(("identity-A", (a.id, THETA), value))
    # theta as source two above grading -3
    for b in data.points:
        if b.grading == -3:
            value = sum(
                data.n_value(THETA, d_id) * data.n_value(d_id, b.id)
                for d_id in data.ids_at(-2))
            if value:
                violations.append(("identity-A", (THETA, b.id), value))

    # Identities B and B' between irreducibles three gradings apart
    for a in data.points:
        for d_id in data.ids_at(a.grading - 3):
            value = sum(
                data.n_value(a.id, c_id) * data.m_value(c_id, d_id)
                for c_id in data.ids_at(a.grading - 1))
            value -= sum(
                data.m_value(a.id, c_id) * data.n_value(c_id, d_id)
                for c_id in data.ids_at(a.grading - 2))
            if a.grading == 1:
                value += data.n_value(a.id, THETA) * data.n_value(THETA, d_id)
                rule = "identity-Bprime"
            else:
                rule = "identity-B"
            if value:
                violations.append((rule, (a.id, d_id), value))

    violations.sort()
    return ValidationReport(not violations, tuple(violations))


@per_dataset
def _validation_report(data: MonopoleData) -> ValidationReport:
    return validate(data)


# ---------------------------------------------------------------------------
# orientation reversal
# ---------------------------------------------------------------------------

def _toggle_id(pid: str) -> str:
    # involutive decoration on legal point ids: strip a trailing "-" exactly
    # when the trailing dashes, plus one for the stems "" and theta, are odd,
    # else append one.  Each toggle flips the parity, so a second toggle
    # undoes the first, and a stripped id is never "" or the reserved theta
    stem = pid.rstrip("-")
    parity = len(pid) - len(stem) + (stem in ("", THETA))
    return pid[:-1] if parity % 2 else pid + "-"


def _toggle_name(name: str) -> str:
    return name[1:] if name.startswith("-") else "-" + name


@per_dataset
def reverse_orientation(data: MonopoleData) -> MonopoleData:
    """The dataset of the oppositely oriented manifold, built once per
    dataset.

    Gradings map to -gr - 1, endpoints swap, and coefficients transport with
    the frozen sign convention: irreducible n-coefficients negate while
    theta-couplings and m-coefficients keep their sign.  This is the unique
    family of signs (up to simultaneous equivalences) making the duality
    pairing intertwine the differentials, and it squares to the identity.
    """
    report = _validation_report(data)
    if not report.ok:
        raise InvalidInput(
            f"cannot reverse invalid data: {report.violations[0]}")
    points = [(_toggle_id(p.id), -p.grading - 1) for p in data.points]
    n = []
    for (src, dst, v) in data.n_coeffs:
        if src == THETA:
            n.append((_toggle_id(dst), THETA, v))
        elif dst == THETA:
            n.append((THETA, _toggle_id(src), v))
        else:
            n.append((_toggle_id(dst), _toggle_id(src), -v))
    m = [(_toggle_id(dst), _toggle_id(src), v) for (src, dst, v) in data.m_coeffs]
    return MonopoleData.build(_toggle_name(data.name), points, n, m)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize(data: MonopoleData) -> bytes:
    doc = {
        "name": data.name,
        "points": [{"id": p.id, "gr": p.grading} for p in data.points],
        "n": [{"from": s, "to": d, "value": v} for (s, d, v) in data.n_coeffs],
        "m": [{"from": s, "to": d, "value": v} for (s, d, v) in data.m_coeffs],
    }
    return json.dumps(doc).encode("utf-8")


def _require_fields(obj: dict, required: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in required:
            raise SchemaError(f"unknown field: {key} (in {where})", field=key)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field: {key} (in {where})", field=key)


def _require_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {field} must be an integer", field=field)
    return value


def _require_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"field {field} must be a string", field=field)
    return value


def parse(text: bytes | str) -> MonopoleData:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("invalid UTF-8", 1, e.start + 1) from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from e
    except (RecursionError, ValueError) as e:
        # nested deeper than the decoder recurses, or an integer longer
        # than int() converts
        raise ParseError(f"unreadable JSON: {e}", 1, 1) from e
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object", field="$")
    _require_fields(doc, ("name", "points", "n", "m"), "document root")
    name = _require_str(doc["name"], "name")

    if not isinstance(doc["points"], list):
        raise SchemaError("field points must be an array", field="points")
    points = []
    for item in doc["points"]:
        if not isinstance(item, dict):
            raise SchemaError("points entries must be objects", field="points")
        _require_fields(item, ("id", "gr"), "points entry")
        points.append((_require_str(item["id"], "id"),
                       _require_int(item["gr"], "gr")))

    def read_coeffs(key: str) -> list[Coefficient]:
        if not isinstance(doc[key], list):
            raise SchemaError(f"field {key} must be an array", field=key)
        out: list[Coefficient] = []
        for item in doc[key]:
            if not isinstance(item, dict):
                raise SchemaError(f"{key} entries must be objects", field=key)
            _require_fields(item, ("from", "to", "value"), f"{key} entry")
            src = _require_str(item["from"], "from")
            dst = _require_str(item["to"], "to")
            value = _require_int(item["value"], "value")
            # build drops zero values, so a zero is rejected here
            if value == 0:
                raise SchemaError(
                    f"zero {key} coefficient ({src}, {dst})", field="value")
            out.append((src, dst, value))
        return out

    # MonopoleData rejects reserved, empty or duplicate ids and duplicate or
    # misplaced coefficients with a SchemaError naming the field
    return MonopoleData.build(name, points, read_coeffs("n"),
                              read_coeffs("m"))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def curated_instances() -> tuple[MonopoleData, ...]:
    """Hand-built valid datasets anchoring the test corpus."""
    return (
        MonopoleData.build("empty", []),
        MonopoleData.build("theta-coupled-pair",
                           [("a", 1), ("d", -2)], n=[("a", THETA, 1)]),
        MonopoleData.build("two-step",
                           [("a", 1), ("b", 0)], n=[("a", "b", 2)]),
        MonopoleData.build("euler-pair",
                           [("a", 2), ("c", 0)], m=[("a", "c", 3)]),
        MonopoleData.build("gap-three-chain",
                           [("w", 2), ("x", 1), ("y", 0), ("z", -1)],
                           n=[("w", "x", 2), ("y", "z", 1)],
                           m=[("x", "z", 3), ("w", "y", 6)]),
        MonopoleData.build("tail-chain",
                           [("p", 3), ("q", 1), ("d", -2)],
                           n=[("q", THETA, 3)], m=[("p", "q", 2)]),
    )


def invalid_instance() -> MonopoleData:
    """Well-placed coefficients that break the grading-1-to--2 identity."""
    return MonopoleData.build("theta-coupled-pair-invalid",
                              [("a", 1), ("d", -2)],
                              n=[("a", THETA, 1), (THETA, "d", 1)])


def _structure_compatible(data: MonopoleData) -> bool:
    # the corpus promises the orbit-complex comparison holds on every member
    from .spectral import structure_theorem
    try:
        structure_theorem(data)
    except CheckFailed:
        return False
    return True


def generate_instances(seed: int, size: int, attempts: int) -> list[MonopoleData]:
    """Curated instances plus rejection-sampled valid datasets.

    Deterministic in the seed; every returned instance passes validate and
    the orbit-complex comparison.  size caps the point count of sampled
    instances at desk scale.
    """
    if not 0 <= size <= 12:
        raise InvalidInput("size must be between 0 and 12")
    out = list(curated_instances())
    seen = {(d.points, d.n_coeffs, d.m_coeffs) for d in out}
    rng = random.Random(seed)
    values = (0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3)
    for attempt in range(attempts):
        count = rng.randint(0, size)
        points = [(f"g{i}", rng.randint(-4, 4)) for i in range(count)]
        gr = dict(points)
        n = []
        m = []
        for (a, ga) in points:
            for (b, gb) in points:
                if ga - gb == 1:
                    n.append((a, b, rng.choice(values)))
                if ga - gb == 2:
                    m.append((a, b, rng.choice(values)))
            if ga == 1:
                n.append((a, THETA, rng.choice(values)))
            if ga == -2:
                n.append((THETA, a, rng.choice(values)))
        candidate = MonopoleData.build(f"sampled-{seed}-{attempt}", points, n, m)
        key = (candidate.points, candidate.n_coeffs, candidate.m_coeffs)
        if key in seen:
            continue
        if not validate(candidate).ok:
            continue
        if not _structure_compatible(candidate):
            continue
        seen.add(key)
        out.append(candidate)
    return out
