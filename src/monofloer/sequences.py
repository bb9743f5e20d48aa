"""The two long exact sequences and the reduced homology group.

The main sequence threads Minus into Infinity, projects onto Plus, and
closes up with a connecting map built from the identity lift of Plus
cycles.  The hat sequence arises from the degreewise split short exact
sequence whose quotient map is omega-inverse.  Exactness at each node is
checked as an equality of subgroup lattices inside the cycle lattice, so
torsion failures cannot hide behind rank counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import u_module_structure
from .complexes import (
    Flavor,
    MonopoleData,
    _differential,
    _identification,
    checked_window,
    require_valid,
    structural_map,
)
from .data import CheckFailed, per_dataset
from .homology import GradedAbelianGroup, Tail, TRIVIAL, presentation_at
from .intlinalg import (
    AbelianGroupInvariants,
    ContainmentError,
    QuotientPresentation,
    SparseIntMatrix,
    column_space_basis,
    hstack,
    preimage_lattice,
)

__all__ = [
    "NodeReport",
    "ExactnessReport",
    "HatSequenceReport",
    "connecting_delta",
    "check_les_main",
    "hf_red",
    "check_les_hat",
]


@dataclass(frozen=True)
class NodeReport:
    """Exactness data at one node of a long exact sequence."""

    degree: int
    node: str
    image: AbelianGroupInvariants
    kernel: AbelianGroupInvariants
    exact: bool
    witness: tuple[str, tuple[int, ...]] | None


@dataclass(frozen=True)
class ExactnessReport:
    window: tuple[int, int]
    nodes: tuple[NodeReport, ...]

    def all_exact(self) -> bool:
        return all(node.exact for node in self.nodes)

    def node(self, degree: int, name: str) -> NodeReport:
        for node in self.nodes:
            if node.degree == degree and node.node == name:
                return node
        raise KeyError((degree, name))


@dataclass(frozen=True)
class HatSequenceReport(ExactnessReport):
    hat_nonzero: bool
    plus_nonzero: bool
    biconditional_holds: bool


# ---------------------------------------------------------------------------
# connecting maps at the chain level
# ---------------------------------------------------------------------------

def _check_lands_in(data, sub: Flavor, ambient: Flavor, n: int,
                    vectors: SparseIntMatrix) -> None:
    """Every column must be supported on the sub-flavor's generators."""
    down = _identification(data, ambient, sub, n)
    back = _identification(data, sub, ambient, n)
    if vectors != back.mul(down.mul(vectors)):
        raise CheckFailed(n, "a lifted boundary escapes the subcomplex")


def _delta_chain(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Chain-level connecting map of the main sequence in degree n.

    Lifts a Plus chain identically into Infinity, applies the Infinity
    differential, and restricts to the Minus generators.  Faithful on
    cycles, whose images lie entirely in the Minus subcomplex.
    """
    lift = _identification(data, Flavor.PLUS, Flavor.INFINITY, n)
    image = _differential(data, Flavor.INFINITY, n).mul(lift)
    return _identification(data, Flavor.INFINITY, Flavor.MINUS, n - 1).mul(
        image)


def _hat_delta_chain(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Chain-level connecting map of the hat sequence, degree n to n + 1.

    Sections omega-inverse by raising the Omega power, applies the Plus
    differential, and restricts to the power-zero generators.
    """
    section = _identification(data, Flavor.PLUS, Flavor.PLUS, n, shift_k=1)
    image = _differential(data, Flavor.PLUS, n + 2).mul(section)
    return _identification(data, Flavor.PLUS, Flavor.HAT, n + 1).mul(image)


def connecting_delta(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Matrix of the connecting map on recorded generators, degree n of
    Plus to degree n - 1 of Minus.

    Checks that each lifted cycle's boundary lies in the Minus subcomplex
    and that lifting a Plus boundary yields the zero class, so the result
    does not depend on the chosen representatives.
    """
    require_valid(data)
    lift = _identification(data, Flavor.PLUS, Flavor.INFINITY, n)
    d_inf = _differential(data, Flavor.INFINITY, n)
    source = presentation_at(data, Flavor.PLUS, n)
    target = presentation_at(data, Flavor.MINUS, n - 1)

    reps = SparseIntMatrix.from_columns(
        lift.cols, [list(g.vector) for g in source.generators])
    raw = d_inf.mul(lift.mul(reps))
    _check_lands_in(data, Flavor.MINUS, Flavor.INFINITY, n - 1, raw)

    boundaries = _differential(data, Flavor.PLUS, n + 1)
    raw_bd = d_inf.mul(lift.mul(boundaries))
    _check_lands_in(data, Flavor.MINUS, Flavor.INFINITY, n - 1, raw_bd)
    restrict = _identification(data, Flavor.INFINITY, Flavor.MINUS, n - 1)
    for col in restrict.mul(raw_bd).columns():
        if not target.is_zero_class(col):
            raise CheckFailed(n, "the connecting map depends on the lift")

    columns = [target.coordinate_of(col)
               for col in restrict.mul(raw).columns()]
    return SparseIntMatrix.from_columns(len(target.generators), columns)


# ---------------------------------------------------------------------------
# exactness as lattice equality
# ---------------------------------------------------------------------------

def _images_of_classes(data, flavor: Flavor, degree: int,
                       chain_map: SparseIntMatrix) -> SparseIntMatrix:
    """Chain images of the recorded homology generators in one degree."""
    pres = presentation_at(data, flavor, degree)
    return SparseIntMatrix.from_columns(
        chain_map.rows,
        [chain_map.apply(g.vector) for g in pres.generators])


@per_dataset
def _exactness(data, cycles: SparseIntMatrix, bd: SparseIntMatrix,
               incoming: SparseIntMatrix, outgoing_cycles: SparseIntMatrix,
               target_bd: SparseIntMatrix
               ) -> tuple[AbelianGroupInvariants, AbelianGroupInvariants,
                          tuple[str, tuple[int, ...]] | None]:
    """Image and kernel invariants at a node, and the first witness of their
    difference; keyed by the node's matrices, not by its degree or name."""
    kernel_classes = cycles.mul(preimage_lattice(outgoing_cycles, target_bd))
    kernel_lattice = column_space_basis(hstack(kernel_classes, bd))
    kernel = QuotientPresentation(kernel_lattice, bd)

    # exact when the incoming image lies in the kernel and spans it: then the
    # two lattices are equal and so are their quotients by bd
    try:
        exact = QuotientPresentation(
            kernel_lattice, hstack(incoming, bd)).invariants.is_trivial
    except ContainmentError:
        exact = False
    if exact:
        return kernel.invariants, kernel.invariants, None

    image = QuotientPresentation(column_space_basis(hstack(incoming, bd)), bd)
    # bd lies in both numerators, so only the other columns can be witnesses
    witness = None
    for reason, outer, inner in (
            ("kernel class outside the incoming image", kernel_classes, image),
            ("incoming image outside the kernel", incoming, kernel)):
        outside = next((col for col in outer.columns()
                        if not inner.contains(col)), None)
        if outside is not None:
            witness = (reason, tuple(outside))
            break
    return image.invariants, kernel.invariants, witness


def _node_report(data, degree: int, name: str, flavor: Flavor,
                 incoming: SparseIntMatrix, outgoing: SparseIntMatrix,
                 target_flavor: Flavor, target_degree: int) -> NodeReport:
    cycles = presentation_at(data, flavor, degree).lattice.basis
    image_inv, kernel_inv, witness = _exactness(
        data, cycles, _differential(data, flavor, degree + 1), incoming,
        outgoing.mul(cycles),
        _differential(data, target_flavor, target_degree + 1))
    return NodeReport(degree, name, image_inv, kernel_inv, witness is None,
                      witness)


def check_les_main(data: MonopoleData,
                   window: tuple[int, int] | None = None) -> ExactnessReport:
    """Exactness of Minus into Infinity onto Plus, closed by the
    connecting map, at every node in the window."""
    lo, hi = checked_window(data, window)
    nodes = []
    for n in range(lo, hi + 1):
        inc = structural_map(data, "inclusion_minus", Flavor.INFINITY, n)
        proj = structural_map(data, "projection_plus", Flavor.INFINITY, n)
        nodes.append(_node_report(
            data, n, "minus", Flavor.MINUS,
            _images_of_classes(data, Flavor.PLUS, n + 1,
                               _delta_chain(data, n + 1)),
            inc, Flavor.INFINITY, n))
        nodes.append(_node_report(
            data, n, "infinity", Flavor.INFINITY,
            _images_of_classes(data, Flavor.MINUS, n, inc),
            proj, Flavor.PLUS, n))
        nodes.append(_node_report(
            data, n, "plus", Flavor.PLUS,
            _images_of_classes(data, Flavor.INFINITY, n, proj),
            _delta_chain(data, n), Flavor.MINUS, n - 1))
    return ExactnessReport((lo, hi), tuple(nodes))


# ---------------------------------------------------------------------------
# the reduced group
# ---------------------------------------------------------------------------

def _red_at(data: MonopoleData, n: int) -> AbelianGroupInvariants:
    """Common value of the projection cokernel at n and the inclusion
    kernel at n - 1; raises CheckFailed if they differ."""
    proj = structural_map(data, "projection_plus", Flavor.INFINITY, n)
    cycles = presentation_at(data, Flavor.PLUS, n).lattice
    bd = _differential(data, Flavor.PLUS, n + 1)
    images = _images_of_classes(data, Flavor.INFINITY, n, proj)
    coker = QuotientPresentation(cycles, hstack(bd, images)).invariants

    # the kernel of the inclusion is that of the "minus" node one degree down
    kernel = _node_report(
        data, n - 1, "minus", Flavor.MINUS,
        _images_of_classes(data, Flavor.PLUS, n, _delta_chain(data, n)),
        structural_map(data, "inclusion_minus", Flavor.INFINITY, n - 1),
        Flavor.INFINITY, n - 1).kernel

    if coker != kernel:
        raise CheckFailed(
            n, f"cokernel of the projection is {coker} but the kernel of the "
            f"inclusion is {kernel}", cokernel=coker, kernel=kernel)
    return coker


def hf_red(data: MonopoleData,
           window: tuple[int, int] | None = None) -> GradedAbelianGroup:
    """The reduced group per degree, computed both as the cokernel of the
    projection and as the kernel of the inclusion one degree down."""
    lo, hi = checked_window(data, window)
    groups = {n: _red_at(data, n) for n in range(lo, hi + 1)}
    tail_above = None
    if _red_at(data, hi + 1).is_trivial and _red_at(data, hi + 2).is_trivial:
        tail_above = Tail(TRIVIAL, TRIVIAL, True)
    tail_below = None
    if _red_at(data, lo - 1).is_trivial and _red_at(data, lo - 2).is_trivial:
        tail_below = Tail(TRIVIAL, TRIVIAL, True)
    return GradedAbelianGroup((lo, hi), groups, tail_above, tail_below)


# ---------------------------------------------------------------------------
# the hat sequence
# ---------------------------------------------------------------------------

def check_les_hat(data: MonopoleData,
                  window: tuple[int, int] | None = None) -> HatSequenceReport:
    """Exactness of Hat into Plus, omega-inverse down two degrees, closed
    by the section-and-differential connecting map.

    The induced middle map is computed both from u and from omega-inverse
    and checked equal (by u_module_structure) before the node checks run;
    the report also records whether Hat and Plus homology vanish together
    over the window.
    """
    lo, hi = checked_window(data, window)
    u_module_structure(data, Flavor.PLUS, (lo, hi))

    nodes = []
    for n in range(lo, hi + 1):
        inc = structural_map(data, "inclusion_hat", Flavor.PLUS, n)
        omega = structural_map(data, "omega_inverse", Flavor.PLUS, n)
        nodes.append(_node_report(
            data, n, "hat", Flavor.HAT,
            _images_of_classes(data, Flavor.PLUS, n - 1,
                               _hat_delta_chain(data, n - 1)),
            inc, Flavor.PLUS, n))
        nodes.append(_node_report(
            data, n, "plus-head", Flavor.PLUS,
            _images_of_classes(data, Flavor.HAT, n, inc),
            omega, Flavor.PLUS, n - 2))
        nodes.append(_node_report(
            data, n, "plus-tail", Flavor.PLUS,
            _images_of_classes(
                data, Flavor.PLUS, n + 2,
                structural_map(data, "omega_inverse", Flavor.PLUS, n + 2)),
            _hat_delta_chain(data, n), Flavor.HAT, n + 1))

    hat_nonzero = any(
        not presentation_at(data, Flavor.HAT, n).invariants.is_trivial
        for n in range(lo, hi + 1))
    plus_nonzero = any(
        not presentation_at(data, Flavor.PLUS, n).invariants.is_trivial
        for n in range(lo, hi + 1))
    return HatSequenceReport((lo, hi), tuple(nodes), hat_nonzero, plus_nonzero,
                             hat_nonzero == plus_nonzero)
