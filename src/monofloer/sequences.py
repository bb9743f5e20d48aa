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
    _image_terms,
    _kept,
    _selection,
    checked_window,
    require_valid,
)
from .data import CheckFailed, per_dataset
from .homology import GradedAbelianGroup, Tail, TRIVIAL, _quotient, \
    presentation_at
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

def _delta_chain(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Chain-level connecting map of the main sequence in degree n: lift a
    Plus chain into Infinity, apply D, restrict to Minus (faithful on
    cycles), which is the D template at those kept positions."""
    return _selection(data, _image_terms, 1, n % 2,
                      _kept(data, Flavor.MINUS, n - 1),
                      _kept(data, Flavor.PLUS, n))


def _hat_delta_chain(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Chain-level connecting map of the hat sequence, degree n to n + 1:
    raise k to section omega-inverse, apply D on Plus, restrict to k = 0.
    Raising k keeps Infinity positions, so this is the D template of n's
    parity at those kept positions."""
    return _selection(data, _image_terms, 1, n % 2,
                      _kept(data, Flavor.HAT, n + 1),
                      _kept(data, Flavor.PLUS, n))


def connecting_delta(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Matrix of the connecting map on recorded generators, degree n of
    Plus to degree n - 1 of Minus.

    Checks that each lifted cycle's boundary lies in the Minus subcomplex
    and that lifting a Plus boundary yields the zero class, so the result
    does not depend on the chosen representatives.
    """
    require_valid(data)
    # the Infinity boundaries of lifted Plus chains
    lifted = _selection(data, _image_terms, 1, n % 2,
                        _kept(data, Flavor.INFINITY, n - 1),
                        _kept(data, Flavor.PLUS, n))
    restrict = _identification(data, Flavor.INFINITY, Flavor.MINUS, n - 1)
    back = _identification(data, Flavor.MINUS, Flavor.INFINITY, n - 1)
    source = presentation_at(data, Flavor.PLUS, n)
    target = presentation_at(data, Flavor.MINUS, n - 1)

    reps = SparseIntMatrix.from_columns(
        lifted.cols, [list(g.vector) for g in source.generators])
    raw = lifted.mul(reps)
    boundaries = _differential(data, Flavor.PLUS, n + 1)
    raw_bd = lifted.mul(boundaries)
    for vectors in (raw, raw_bd):
        if vectors != back.mul(restrict.mul(vectors)):
            raise CheckFailed(n, "a lifted boundary escapes the subcomplex")
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
               incoming: SparseIntMatrix, outgoing: SparseIntMatrix,
               target_bd: SparseIntMatrix
               ) -> tuple[AbelianGroupInvariants, AbelianGroupInvariants,
                          tuple[str, tuple[int, ...]] | None]:
    """Image and kernel invariants at a node, and the first witness of their
    difference; keyed by the node's matrices, not by its degree or name."""
    kernel_classes = cycles.mul(
        preimage_lattice(outgoing.mul(cycles), target_bd))
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
        outgoing, _differential(data, target_flavor, target_degree + 1))
    return NodeReport(degree, name, image_inv, kernel_inv, witness is None,
                      witness)


# a long exact sequence as (names, flavors, connecting map, degree shifts)
_MAIN = (("minus", "infinity", "plus"),
         (Flavor.MINUS, Flavor.INFINITY, Flavor.PLUS), _delta_chain,
         (0, 0, -1))
_HAT = (("hat", "plus-head", "plus-tail"),
        (Flavor.HAT, Flavor.PLUS, Flavor.PLUS), _hat_delta_chain, (0, -2, 1))


def _node(data: MonopoleData, sequence, i: int, n: int) -> NodeReport:
    """Node i of a sequence in degree n.  Map i runs from node i in degree
    n to node i + 1 (cyclically) in degree n + shift i; maps 0 and 1
    identify kept positions and map 2 connects.  The node's incoming image
    is that of map i - 1."""
    names, flavors, connecting, shifts = sequence

    def chain_map(j, m):
        return connecting(data, m) if j == 2 else _identification(
            data, flavors[j], flavors[j + 1], m, shifts[j] // 2)

    m = n - shifts[i - 1]
    return _node_report(
        data, n, names[i], flavors[i],
        _images_of_classes(data, flavors[i - 1], m, chain_map((i - 1) % 3, m)),
        chain_map(i, n), flavors[(i + 1) % 3], n + shifts[i])


def _sequence_nodes(data: MonopoleData, sequence,
                    lo: int, hi: int) -> tuple[NodeReport, ...]:
    """The three node reports of each degree of the window, in order."""
    return tuple(_node(data, sequence, i, n)
                 for n in range(lo, hi + 1) for i in range(3))


def check_les_main(data: MonopoleData,
                   window: tuple[int, int] | None = None) -> ExactnessReport:
    """Exactness of Minus into Infinity onto Plus, closed by the
    connecting map, at every node in the window."""
    lo, hi = checked_window(data, window)
    return ExactnessReport((lo, hi), _sequence_nodes(data, _MAIN, lo, hi))


# ---------------------------------------------------------------------------
# the reduced group
# ---------------------------------------------------------------------------

def _red_at(data: MonopoleData, n: int) -> AbelianGroupInvariants:
    """Common value of the projection cokernel at n and the inclusion
    kernel at n - 1; raises CheckFailed if they differ."""
    images = _images_of_classes(
        data, Flavor.INFINITY, n,
        _identification(data, Flavor.INFINITY, Flavor.PLUS, n))
    coker = _quotient(data, presentation_at(data, Flavor.PLUS, n).lattice,
                      hstack(_differential(data, Flavor.PLUS, n + 1),
                             images)).invariants

    # the kernel of the inclusion is that of the "minus" node one degree down
    kernel = _node(data, _MAIN, 0, n - 1).kernel

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
    nodes = _sequence_nodes(data, _HAT, lo, hi)
    hat_nonzero = any(
        not presentation_at(data, Flavor.HAT, n).invariants.is_trivial
        for n in range(lo, hi + 1))
    plus_nonzero = any(
        not presentation_at(data, Flavor.PLUS, n).invariants.is_trivial
        for n in range(lo, hi + 1))
    return HatSequenceReport((lo, hi), nodes, hat_nonzero, plus_nonzero,
                             hat_nonzero == plus_nonzero)
