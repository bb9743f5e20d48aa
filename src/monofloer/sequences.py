"""The two long exact sequences and the reduced homology group.

The main sequence threads Minus into Infinity, projects onto Plus, and
closes up with a connecting map built from the identity lift of Plus
cycles.  The hat sequence arises from the degreewise split short exact
sequence whose quotient map is omega-inverse.  Exactness at each node is
checked as an equality of subgroup lattices inside the cycle lattice, so
torsion failures cannot hide behind rank counts.  Both sequences and the
reduced group run on the certified reductions of complexes._reduced: each
chain map is carried there as g_target . map . f_source, which is the
original map conjugated by isomorphisms on homology, so every invariant
and verdict is the unreduced one.  So does connecting_delta, and so does
the hat sequence's check that u and omega-inverse agree on homology, which
is actions.u_module_structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import u_module_structure
from .complexes import (
    REDUCED_FLAVORS,
    Flavor,
    MonopoleData,
    _band,
    _carried,
    _differential,
    _image_terms,
    _reduced,
    _reduced_differential,
    _rule_matrix,
    _same,
    checked_degree,
    checked_window,
)
from .data import CheckFailed, per_dataset
from .homology import GradedAbelianGroup, TRIVIAL, _quotient, _tail, \
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

def connecting_delta(data: MonopoleData, n: int) -> SparseIntMatrix:
    """Matrix of the connecting map on the recorded generators of the
    certified reductions, degree n of Plus to degree n - 1 of Minus.

    The representatives are f applied to the reduced Plus generators.  On
    the unreduced complexes, checks that each lifted cycle's boundary lies
    in the Minus subcomplex and that lifting a Plus boundary yields the
    zero class, so the result does not depend on the chosen
    representatives; classes are read through g on the reduced Minus
    homology.
    """
    checked_degree(data, n)
    # the Infinity boundaries of lifted Plus chains
    lifted = _rule_matrix(data, _image_terms, 1, Flavor.PLUS, n,
                          Flavor.INFINITY)
    restrict = _rule_matrix(data, _same, 0, Flavor.INFINITY, n - 1,
                            Flavor.MINUS)
    back = _rule_matrix(data, _same, 0, Flavor.MINUS, n - 1, Flavor.INFINITY)
    source = presentation_at(data, Flavor.PLUS, n)
    target = presentation_at(data, Flavor.MINUS, n - 1)
    g = _reduced(data, Flavor.MINUS, n - 1).g

    raw = lifted.mul(_images_of_classes(
        source, _reduced(data, Flavor.PLUS, n).f))
    boundaries = _differential(data, Flavor.PLUS, n + 1)
    raw_bd = lifted.mul(boundaries)
    for vectors in (raw, raw_bd):
        if vectors != back.mul(restrict.mul(vectors)):
            raise CheckFailed(n, "a lifted boundary escapes the subcomplex")
    for col in g.mul(restrict.mul(raw_bd)).columns():
        if not target.is_zero_class(col):
            raise CheckFailed(n, "the connecting map depends on the lift")

    columns = [target.coordinate_of(col)
               for col in g.mul(restrict.mul(raw)).columns()]
    return SparseIntMatrix.from_columns(len(target.generators), columns)


# ---------------------------------------------------------------------------
# exactness as lattice equality
# ---------------------------------------------------------------------------

def _images_of_classes(pres: QuotientPresentation,
                       chain_map: SparseIntMatrix) -> SparseIntMatrix:
    """Chain images of a presentation's recorded generators."""
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


# a long exact sequence as (names, flavors, the (rule, drop) of each map,
# degree shifts), each map cut by _chain_map: maps 0 and 1 identify kept
# positions, and map 2, the connecting map, lifts, applies D and
# restricts, which is D at the kept positions of its two ends
_MAIN = (("minus", "infinity", "plus"),
         (Flavor.MINUS, Flavor.INFINITY, Flavor.PLUS),
         ((_same, 0), (_same, 0), (_image_terms, 1)), (0, 0, -1))
_HAT = (("hat", "plus-head", "plus-tail"),
        (Flavor.HAT, Flavor.PLUS, Flavor.PLUS),
        ((_same, 0), (_same, 0), (_image_terms, 1)), (0, -2, 1))


def _chain_map(data: MonopoleData, sequence, j: int,
               m: int) -> SparseIntMatrix:
    """Map j of a sequence in degree m, from node j in degree m to node
    j + 1 (cyclically) in degree m + shift j, carried to the reductions."""
    _, flavors, maps, shifts = sequence
    source, target = flavors[j], flavors[(j + 1) % 3]
    chain = _rule_matrix(data, *maps[j], source, m, target, shifts[j])
    return _carried(data, chain, source, m, target, m + shifts[j])


def _node(data: MonopoleData, sequence, i: int, n: int) -> NodeReport:
    """Node i of a sequence in degree n, on the reductions.  The node's
    incoming image is that of map i - 1 (_chain_map), and a witness is
    carried back to the node's own generators through f."""
    names, flavors, _, shifts = sequence
    flavor, m = flavors[i], n - shifts[i - 1]
    pres = presentation_at(data, flavor, n)
    if pres.invariants.is_trivial:
        # the image lies in the kernel, which lies in zero homology
        return NodeReport(n, names[i], TRIVIAL, TRIVIAL, True, None)
    image, kernel, witness = _exactness(
        data, pres.lattice.basis,
        _reduced_differential(data, flavor, n + 1),
        _images_of_classes(presentation_at(data, flavors[i - 1], m),
                           _chain_map(data, sequence, (i - 1) % 3, m)),
        _chain_map(data, sequence, i, n),
        _reduced_differential(data, flavors[(i + 1) % 3], n + shifts[i] + 1))
    if witness is not None and flavor in REDUCED_FLAVORS:
        reason, vector = witness
        witness = reason, tuple(_reduced(data, flavor, n).f.apply(vector))
    return NodeReport(n, names[i], image, kernel, witness is None, witness)


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
    images = _images_of_classes(presentation_at(data, Flavor.INFINITY, n),
                                _chain_map(data, _MAIN, 1, n))
    coker = _quotient(
        data, presentation_at(data, Flavor.PLUS, n).lattice,
        hstack(_reduced_differential(data, Flavor.PLUS, n + 1),
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
    projection and as the kernel of the inclusion one degree down, plus
    the tails of homology._tail, which reads them off _red_at."""
    lo, hi = checked_window(data, window)
    groups = {n: _red_at(data, n) for n in range(lo, hi + 1)}
    tails = [_tail(data, edge, step, lambda n: _red_at(data, n),
                   lambda n: _red_at(data, n).is_trivial)
             for edge, step in ((hi, 1), (lo, -1))]
    return GradedAbelianGroup((lo, hi), groups, *tails)


# ---------------------------------------------------------------------------
# the hat sequence
# ---------------------------------------------------------------------------

def check_les_hat(data: MonopoleData,
                  window: tuple[int, int] | None = None) -> HatSequenceReport:
    """Exactness of Hat into Plus, omega-inverse down two degrees, closed
    by the section-and-differential connecting map.

    The induced middle map is computed both from u and from omega-inverse
    and checked equal on homology (by u_module_structure) before the node
    checks run.  The report also records whether Hat and Plus homology
    vanish together in any degree: they are read over the band of
    complexes._band, onto which every degree folds, so the answer does not
    depend on the window.
    """
    lo, hi = checked_window(data, window)
    u_module_structure(data, Flavor.PLUS, (lo, hi))
    nodes = _sequence_nodes(data, _HAT, lo, hi)
    band_lo, band_hi = _band(data)
    hat_nonzero, plus_nonzero = (
        any(not presentation_at(data, flavor, n).invariants.is_trivial
            for n in range(band_lo, band_hi + 1))
        for flavor in (Flavor.HAT, Flavor.PLUS))
    return HatSequenceReport((lo, hi), nodes, hat_nonzero, plus_nonzero,
                             hat_nonzero == plus_nonzero)
