"""Linear longitudinal dynamics of the multi-stage mirror suspension.

The chain is described by one coordinate per stage.  The two mirrors
hang from a common penultimate mass, which is the single branch point of
the topology; the cavity senses only their differential motion, so the
suspension-point coupling is proportional to the stiffness mismatch of
the two final stages and falls as f^2 towards DC.

Horizontal stiffnesses are gravitational: each wire's pendulum stiffness
is the weight it supports divided by its length.  Vertical stiffnesses
come from the blade springs and are configured directly.  Structural
damping enters as a complex stiffness k*(1 + i*phi) at evaluation time;
viscous (eddy-current) damping enters through a real damping matrix.

Every response comes from one solver, `_tree_solve`.  The springs form a
tree (one spring above each coordinate, hung from ground or a lower
index; `LinearModel` enforces this), so the dynamic stiffness
-omega^2 M + i omega C + K is eliminated node by node over length-n_f
arrays, rooted at the driven node: ground for the suspension-point
transfer functions, the mirror for the force susceptibility.  Each
response asks for the one coordinate it reads, and the solver holds
arrays only along the path from the root to it (an O(path) working set,
not O(n_f * n)); a spring without a dashpot has a frequency-independent
impedance, held as one complex scalar.  A pivot that is exactly zero at
some frequency, or a response that is not finite there (it overflows far
above any mode), raises NumericalError naming that frequency; no response
returns NaN or inf.  Every response takes a `LinearModel` from `build_model`,
so a caller builds each axis once and shares it between responses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import G_STD
from .errors import ConfigError, NumericalError
from .spectra import write_csv

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class Stage:
    """One suspension stage (mass plus its upper attachment)."""

    mass: float                       # [kg]
    wire_length: float                # [m]
    vertical_stiffness: float = 0.0   # blade spring [N/m]
    viscous_damping_to_parent: float = 0.0  # dashpot to the stage above [N s/m]
    loss_angle: float = 0.0           # structural loss of the attachment
    name: str = ""

    def __post_init__(self):
        if self.mass <= 0.0 or self.wire_length <= 0.0:
            raise ConfigError("stage mass and wire length must be positive")
        if (
            self.vertical_stiffness < 0.0
            or self.viscous_damping_to_parent < 0.0
            or self.loss_angle < 0.0
        ):
            raise ConfigError("stiffness, damping and loss angle must be >= 0")
        # the name becomes a field of modes.csv
        if not isinstance(self.name, str) or any(c in self.name for c in ",\r\n\0"):
            raise ConfigError(
                f"stage key 'name' must be a string without ',', CR, LF or NUL, "
                f"got {self.name!r}"
            )


@dataclass(frozen=True)
class SuspensionChain:
    """Main chain (top to penultimate) plus the final stage that hangs each
    of the two mirrors.

    `stiffness_mismatch` is the relative difference of the two final-stage
    pendulum stiffnesses: they are scaled by (1 +/- eps/2).  It is the one
    free parameter of the differential coupling.
    """

    stages: tuple                       # Stage, top -> penultimate
    final_stage: Stage                  # each mirror and its wire
    stiffness_mismatch: float = 0.01
    vertical_coupling: float = 1e-3     # vertical-to-cavity-axis projection

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) < 1:
            raise ConfigError("need at least one main-chain stage")
        if self.stiffness_mismatch < 0.0:
            raise ConfigError("stiffness mismatch must be >= 0")
        if self.vertical_coupling < 0.0:
            raise ConfigError("vertical coupling must be >= 0")
        object.__setattr__(self, "stages", stages)


@dataclass(frozen=True)
class SpringElement:
    """Spring/dashpot between `parent` and `child` coordinates (-1 = ground)."""

    parent: int
    child: int
    stiffness: float
    damping: float = 0.0
    loss_angle: float = 0.0


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Assembled M, C, K system with its element list, output maps and tree plans."""

    masses: np.ndarray
    springs: tuple
    coord_names: tuple
    axis: str
    mirror_a: int | None = None
    mirror_b: int | None = None

    def __post_init__(self):
        arr = np.array(self.masses, dtype=float)
        if np.any(arr <= 0.0):
            raise ConfigError("all masses must be positive")
        springs = tuple(self.springs)
        # the solver eliminates a tree: one spring above each coordinate,
        # hung from ground (-1) or from a lower-numbered coordinate
        if sorted(s.child for s in springs) != list(range(arr.size)) or any(
            not -1 <= s.parent < s.child for s in springs
        ):
            raise ConfigError(
                "springs must form a tree: each coordinate the child of exactly "
                "one spring whose parent index is below the child's"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)
        object.__setattr__(self, "springs", springs)
        object.__setattr__(self, "_plans", {})

    @property
    def ndof(self):
        return self.masses.size

    def plan(self, root, output, leaves=()):
        """The `_tree_plan` of this root, output and leaves, derived once for every grid."""
        key = root, output, leaves
        if key not in self._plans:
            self._plans[key] = _tree_plan(self, *key)
        return self._plans[key]

    def _assemble(self, weight):
        mat = np.zeros((self.ndof, self.ndof))
        for s in self.springs:
            w = weight(s)
            mat[s.child, s.child] += w
            if s.parent >= 0:
                mat[s.parent, s.parent] += w
                mat[s.parent, s.child] -= w
                mat[s.child, s.parent] -= w
        return mat

    @property
    def k_matrix(self):
        return self._assemble(lambda s: s.stiffness)

    @property
    def c_matrix(self):
        return self._assemble(lambda s: s.damping)


def _spring(parent, child, stage, stiffness):
    """The spring and dashpot hanging `stage` (coordinate `child`) from `parent`."""
    return SpringElement(
        parent=parent, child=child, stiffness=stiffness,
        damping=stage.viscous_damping_to_parent, loss_angle=stage.loss_angle,
    )


def _chain(stages, axis, below=()):
    """Masses, springs and coordinate names of `stages` hung in a line.

    Each stage hangs from the one above it, the first from ground.
    Horizontally a wire's stiffness is the weight below it divided by its
    length, the masses `below` (hung under the last stage) included;
    vertically it is the stage's blade stiffness.
    """
    masses = [s.mass for s in stages]
    names = [s.name or f"stage_{i + 1}" for i, s in enumerate(stages)]
    springs = []
    hanging = sum(masses + list(below))
    for i, s in enumerate(stages):
        k = G_STD * hanging / s.wire_length if axis == HORIZONTAL else s.vertical_stiffness
        springs.append(_spring(i - 1, i, s, k))
        hanging -= s.mass
    return masses, springs, names


def build_model(chain, axis):
    """Assemble the linear model for one axis.

    horizontal: pendulum stiffness = supported weight / wire length, with
    the two mirror stages branching off the last main coordinate.
    vertical: a blade-spring stiffness on each stage (the mirror masses
    ride on the last vertical coordinate).
    """
    m = chain.final_stage
    if axis == HORIZONTAL:
        masses, springs, names = _chain(chain.stages, axis, below=(m.mass, m.mass))
        n_main = len(masses)
        names += [f"{m.name or 'mirror'}_{side}" for side in "ab"]
        eps = chain.stiffness_mismatch
        for j, split in enumerate((1.0 + eps / 2.0, 1.0 - eps / 2.0)):
            masses.append(m.mass)
            springs.append(_spring(n_main - 1, n_main + j, m,
                                   G_STD * m.mass / m.wire_length * split))
        return LinearModel(masses=masses, springs=springs, coord_names=tuple(names),
                           axis=axis, mirror_a=n_main, mirror_b=n_main + 1)

    if axis == VERTICAL:
        if any(s.vertical_stiffness <= 0.0 for s in chain.stages):
            raise ConfigError("each vertical stage needs a blade stiffness")
        masses, springs, names = _chain(chain.stages, axis)
        # mirrors ride the penultimate mass along the vertical axis
        masses[-1] += m.mass + m.mass
        return LinearModel(masses=masses, springs=springs, coord_names=tuple(names),
                           axis=axis, mirror_a=len(masses) - 1)

    raise ConfigError(f"unknown axis {axis!r}")


@dataclass(frozen=True)
class Mode:
    frequency_hz: float
    q: float | None          # None when the mode is lossless
    dominant_coord: str = ""


def eigenmodes(model):
    """Undamped modes of (M, K) with Q estimated from C and loss angles.

    Q combines viscous and structural dissipation as 1/Q = 1/Qv + 1/Qs,
    evaluated on the undamped mode shapes (light damping assumption).
    """
    w = 1.0 / np.sqrt(model.masses)
    a = w[:, None] * model.k_matrix * w[None, :]
    a = 0.5 * (a + a.T)
    try:
        lam, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-solver failed: {exc}") from exc

    c_mat = model.c_matrix
    modes = []
    for i in range(model.ndof):
        lam_i = max(lam[i], 0.0)
        omega = np.sqrt(lam_i)
        shape = w * vecs[:, i]          # mass-normalised physical shape
        inv_q = 0.0
        if omega > 0.0:
            c_modal = shape @ c_mat @ shape
            inv_q += c_modal / omega
            k_phi = 0.0
            for s in model.springs:
                dv = shape[s.child] - (shape[s.parent] if s.parent >= 0 else 0.0)
                k_phi += s.loss_angle * s.stiffness * dv * dv
            inv_q += k_phi / (omega * omega)
        q = (1.0 / inv_q) if inv_q > 0.0 else None
        dom = model.coord_names[int(np.argmax(np.abs(shape)))]
        modes.append(Mode(
            frequency_hz=float(omega / (2.0 * np.pi)),
            q=q,
            dominant_coord=dom,
        ))
    modes.sort(key=lambda m: m.frequency_hz)
    return modes


def _nonzero_pivot(d, grid):
    if not d.all():
        raise NumericalError("zero pivot in the dynamic stiffness",
                             frequency_hz=float(grid.values[np.argmin(d != 0.0)]))
    return d


def _finite(x, grid):
    """The response `x`, refused at its first non-finite frequency."""
    finite = np.isfinite(x)
    if not finite.all():
        raise NumericalError("suspension response is not finite",
                             frequency_hz=float(grid.values[np.argmin(finite)]))
    return x


def _kappa(spring, omega):
    """Impedance of one spring: a complex scalar unless it has a dashpot."""
    kappa = spring.stiffness * (1.0 + 1j * spring.loss_angle)
    if spring.damping:
        kappa = kappa + 1j * omega * spring.damping
    return kappa


def _tree_plan(model, root, output, leaves):
    """How `_tree_solve` eliminates `model`'s tree rooted at `root` (ground
    is -1), found breadth first with no grid.  Returns the steps, leaf to
    root, one per node but the root: (node, next node towards the root, the
    spring joining them, whether its (kappa, pivot) pair is kept, being on
    the path or in `leaves`); the path from the root to `output`, root side
    first; and, when a force drives, the spring of each node hung from ground."""
    towards = {root: (None, None)}      # node -> (next node towards the root, spring)
    order = [root]
    for v in order:
        for s in model.springs:
            w = s.child if s.parent == v else s.parent if s.child == v else -1
            if w != -1 and w not in towards:
                towards[w] = v, s
                order.append(w)
    path = []
    v = output
    while v != root:
        path.append(v)
        v = towards[v][0]
    kept = set(path) | set(leaves)
    return (tuple((v, *towards[v], v in kept) for v in reversed(order[1:])), path[::-1],
            {s.child: s for s in model.springs if s.parent == -1 and root != -1})


def _tree_solve(model, grid, output, force_at=None, leaves=()):
    """Solve (-omega^2 M + i omega C + K) x = b on the suspension tree.

    The drive is a unit displacement of the suspension point (ground) when
    `force_at` is None, else a unit force on coordinate `force_at`.  The
    tree is rooted at the driven node and eliminated leaf-to-root in the
    order of `model.plan`: a node's impedance Z (its mass plus the branches
    folded into it) joins the next node towards the root through its spring
    kappa as kappa*Z/(kappa + Z).  Back-substitution only multiplies gains,
    x = kappa*x_next/(kappa + Z), and a forced root moves by 1/Z_root, so no
    sum can cancel the small dissipative part of a response.

    Only what the caller reads is held: a node's Z lives from its first
    use until it is folded into the next node, and kappa and the pivot
    kappa + Z are kept for the nodes between the root and `output` (the
    back-substitution path) and for `leaves`.  Returns the response of
    coordinate `output` and a (kappa, pivot) pair per coordinate in
    `leaves`, each kappa being the spring towards the root.
    """
    omega = grid.angular
    omega2 = omega ** 2
    root = -1 if force_at is None else force_at
    steps, path, grounded = model.plan(root, output, leaves)
    z = {}

    def take(v):
        """Z of node v, removed from `z`; a fresh node is its mass term."""
        if v in z:
            return z.pop(v)
        zv = -model.masses[v] * omega2
        if v in grounded:
            zv = zv + _kappa(grounded[v], omega)   # spring to the fixed ground
        return zv

    held = {}
    for v, q, spring, kept in steps:
        k = _kappa(spring, omega)
        zv = take(v)
        d = _nonzero_pivot(k + zv, grid)
        if q >= 0:
            z[q] = take(q) + k * zv / d
        if kept:
            held[v] = k, d
        del k, zv, d      # freed before the next node allocates

    if force_at is None:
        x = 1.0
    else:
        x = 1.0 / _nonzero_pivot(take(root), grid)
    for v in path:
        k, d = held[v] if v in leaves else held.pop(v)
        x = k * x / d
    return x, [held[v] for v in leaves]


def tf_suspoint_to_mirror(model, grid):
    """Suspension-point displacement to mirror a's displacement."""
    x, _ = _tree_solve(model, grid, model.mirror_a)
    return _finite(x, grid)


def tf_suspoint_to_differential(model, grid):
    """Suspension-point displacement to differential cavity displacement.

    `model` is the horizontal model, whose two mirrors hang from the
    coordinate before mirror a.  Computed as (g_a - g_b) * x_penultimate,
    with the leaf gains g = kappa / d and their difference expanded
    analytically, so equal final stages give an exactly zero transfer
    function instead of a rounding residue.
    """
    a, b = model.mirror_a, model.mirror_b
    if b is None:
        raise ConfigError("model has no mirror 'b'")
    x, ((kap_a, d_a), (kap_b, d_b)) = _tree_solve(model, grid, a - 1, leaves=(a, b))
    ma, mb = model.masses[a], model.masses[b]
    diff_gain = grid.angular ** 2 * (ma * kap_b - mb * kap_a) / (d_a * d_b)
    return _finite(diff_gain * x, grid)


def mirror_force_susceptibility(model, grid):
    """Displacement per force applied at mirror a [m/N]."""
    a = model.mirror_a
    x, _ = _tree_solve(model, grid, a, force_at=a)
    return _finite(x, grid)


def write_mode_table(path, modes):
    """CSV sidecar: frequency_hz, q, dominant_stage (q = inf when lossless)."""
    write_csv(path, ["frequency_hz", "q", "dominant_stage"], [
        [m.frequency_hz for m in modes],
        [np.inf if m.q is None else m.q for m in modes],
        [m.dominant_coord for m in modes],
    ])
