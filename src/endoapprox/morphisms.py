"""Block morphisms between powers of the simple factors: norms, ranks,
codimension, weighted/special certificates, the section embedding, the
isogeny extension and non-commutative Gauss reduction.

A morphism is a block-diagonal family of per-factor matrices with entries
in that factor's ring; off-diagonal blocks between distinct factors do not
exist (non-isogenous factors admit no maps between them), so they are
never stored.  Column reorderings required by the weighted normal form are
kept as explicit column selections instead of physically permuting, which
keeps every composition exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .rings import ProductRingSpec, RingElement, RingError, RingSpec


class MorphismError(ValueError):
    pass


MultiIndex = tuple[int, ...]

_set = object.__setattr__


class AmbientSpec:
    """A power of the product variety: per-factor coordinate counts.
    Immutable."""

    __slots__ = ("product", "counts")

    def __init__(self, product: ProductRingSpec, counts: MultiIndex):
        if len(counts) != product.n_factors:
            raise MorphismError("one count per ring factor required")
        if any(c < 0 for c in counts):
            raise MorphismError("coordinate counts must be non-negative")
        _set(self, "product", product)
        _set(self, "counts", counts)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not AmbientSpec:
            return NotImplemented
        return (self.product, self.counts) == (other.product, other.counts)

    def __hash__(self) -> int:
        return hash((self.product, self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def dimension(self) -> int:
        return sum(f.dimension * c for f, c in zip(self.product.factors, self.counts))

    def with_counts(self, counts: MultiIndex) -> "AmbientSpec":
        return AmbientSpec(self.product, tuple(counts))


class BlockMorphism:
    """Per-factor matrices over the factor rings; source/target multi-indices.

    Every entry lies in its factor's order: construction refuses an entry
    with a denominator, so no block carries one."""

    __slots__ = ("product", "source", "target", "blocks", "_norm_sq")

    def __init__(self, product: ProductRingSpec, source, target, blocks):
        self.product = product
        self.source = tuple(source)
        self.target = tuple(target)
        if len(self.source) != product.n_factors or len(self.target) != product.n_factors:
            raise MorphismError("multi-index length must match the number of factors")
        blocks = tuple(tuple(tuple(row) for row in block) for block in blocks)
        for i, (block, spec) in enumerate(zip(blocks, product.factors)):
            if len(block) != self.target[i]:
                raise MorphismError(f"factor {i}: expected {self.target[i]} rows")
            for r, row in enumerate(block):
                if len(row) != self.source[i]:
                    raise MorphismError(f"factor {i}: expected {self.source[i]} columns")
                for c, e in enumerate(row):
                    if e.ring.tag != spec.tag:
                        raise MorphismError(f"factor {i}: entry from wrong ring {e.ring.tag}")
                    if e.den != 1:
                        raise MorphismError(f"factor {i}: entry ({r}, {c}) is not integral")
        self.blocks = blocks
        self._norm_sq = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coords(cls, product, source, target, coord_blocks) -> "BlockMorphism":
        blocks = []
        for spec, block in zip(product.factors, coord_blocks):
            blocks.append([[spec.element(entry) for entry in row] for row in block])
        return cls(product, source, target, blocks)

    @classmethod
    def zero(cls, product, source, target) -> "BlockMorphism":
        blocks = [
            [[spec.zero() for _ in range(s)] for _ in range(t)]
            for spec, s, t in zip(product.factors, source, target)
        ]
        return cls(product, source, target, blocks)

    @classmethod
    def identity(cls, product, counts) -> "BlockMorphism":
        return cls.scalar(product, counts, 1)

    @classmethod
    def scalar(cls, product, counts, n: int) -> "BlockMorphism":
        blocks = []
        for spec, c in zip(product.factors, counts):
            blocks.append(
                [[spec.integer(n) if i == j else spec.zero() for j in range(c)] for i in range(c)]
            )
        return cls(product, counts, counts, blocks)

    # -- arithmetic --------------------------------------------------------

    def norm_sq(self) -> Fraction:
        if self._norm_sq is None:
            self._norm_sq = max(
                (e.norm_sq() for block in self.blocks for row in block for e in row), default=Fraction(0)
            )
        return self._norm_sq

    def compose(self, other: "BlockMorphism") -> "BlockMorphism":
        """self o other (apply `other` first)."""
        if other.target != self.source:
            raise MorphismError("composition shape mismatch")
        blocks = []
        for spec, a, b in zip(self.product.factors, self.blocks, other.blocks):
            rows = len(a)
            mid = len(b)
            cols = len(b[0]) if b else 0
            out = []
            for i in range(rows):
                out_row = []
                for j in range(cols):
                    acc = spec.zero()
                    for p in range(mid):
                        acc = acc + a[i][p] * b[p][j]
                    out_row.append(acc)
                out.append(out_row)
            blocks.append(out)
        return BlockMorphism(self.product, other.source, self.target, blocks)

    def scale_int(self, n: int) -> "BlockMorphism":
        blocks = [[[e.scale(n) for e in row] for row in block] for block in self.blocks]
        return BlockMorphism(self.product, self.source, self.target, blocks)

    def sub(self, other: "BlockMorphism") -> "BlockMorphism":
        if other.source != self.source or other.target != self.target:
            raise MorphismError("difference shape mismatch")
        blocks = [
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(ba, bb)]
            for ba, bb in zip(self.blocks, other.blocks)
        ]
        return BlockMorphism(self.product, self.source, self.target, blocks)

    def hstack(self, right: "BlockMorphism") -> "BlockMorphism":
        """(self | right): concatenate source coordinates per factor."""
        if right.target != self.target:
            raise MorphismError("hstack target mismatch")
        source = tuple(a + b for a, b in zip(self.source, right.source))
        blocks = []
        for ba, bb in zip(self.blocks, right.blocks):
            blocks.append([list(ra) + list(rb) for ra, rb in zip(ba, bb)])
        return BlockMorphism(self.product, source, self.target, blocks)

    def split_columns(self, left_counts: MultiIndex) -> tuple["BlockMorphism", "BlockMorphism"]:
        """Inverse of hstack: split source coordinates per factor."""
        right_counts = tuple(s - l for s, l in zip(self.source, left_counts))
        if any(c < 0 for c in right_counts):
            raise MorphismError("split exceeds source counts")
        lb, rb = [], []
        for block, l in zip(self.blocks, left_counts):
            lb.append([row[:l] for row in block])
            rb.append([row[l:] for row in block])
        left = BlockMorphism(self.product, left_counts, self.target, lb)
        right = BlockMorphism(self.product, right_counts, self.target, rb)
        return left, right

    def is_zero(self) -> bool:
        return all(e.is_zero() for block in self.blocks for row in block for e in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(
            tuple(tuple(e.nums for e in row) for row in block) for block in self.blocks
        )))

    def __repr__(self):
        return f"BlockMorphism({self.source}->{self.target}, |.|^2={self.norm_sq()})"


def rationalize_block(spec: RingSpec, block) -> linalg.Matrix:
    """Replace each integral entry by its lattice-representation matrix, the
    integer image `rho_int` of its coordinates."""
    out = []
    for row in block:
        images = [spec.rho_int(e.nums) for e in row]
        for r in range(2 * spec.dimension):
            out.append([x for image in images for x in image[r]])
    return out


def rank_and_codim(phi: BlockMorphism, ambient: AmbientSpec) -> tuple[MultiIndex, int]:
    """Per-factor ranks over the rationalized ring and total codimension.

    The rank of a block is the rank of its lattice-representation image
    divided by 2*d_i; the codimension is sum(d_i * r_i).
    """
    if ambient.counts != phi.source:
        raise MorphismError("ambient does not match morphism source")
    ranks = []
    codim = 0
    for spec, block in zip(phi.product.factors, phi.blocks):
        if not block or not block[0]:
            ranks.append(0)
            continue
        q_rank = linalg.rank(rationalize_block(spec, block))
        two_d = 2 * spec.dimension
        if q_rank % two_d != 0:
            raise MorphismError("rationalized rank not divisible by 2d; not a module map")
        r_i = q_rank // two_d
        ranks.append(r_i)
        codim += spec.dimension * r_i
    return tuple(ranks), codim


class WeightedCertificate:
    """Scale a with per-factor column selections realizing a*I inside the
    morphism it certifies; construction checks it, so a false one raises.
    Immutable.

    columns[i][j] is the source column of factor i whose image is a times
    the j-th target basis vector; slack_sq certifies |phi|^2 <= slack_sq*a^2.
    """

    __slots__ = ("morphism", "scale", "columns", "slack_sq")

    def __init__(
        self, morphism: BlockMorphism, scale: int, columns: tuple[tuple[int, ...], ...], slack_sq: Fraction
    ):
        _set(self, "morphism", morphism)
        _set(self, "scale", scale)
        _set(self, "columns", columns)
        _set(self, "slack_sq", slack_sq)
        self._verify()

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return (self.morphism, self.scale, self.columns, self.slack_sq)

    def __eq__(self, other):
        if other.__class__ is not WeightedCertificate:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _verify(self) -> None:
        phi = self.morphism
        if self.scale < 1:
            raise MorphismError("weighted scale must be a positive integer")
        if len(self.columns) != phi.product.n_factors:
            raise MorphismError("certificate needs one column tuple per factor")
        for i, (spec, block) in enumerate(zip(phi.product.factors, phi.blocks)):
            cols = self.columns[i]
            if len(cols) != phi.target[i]:
                raise MorphismError("certificate needs one column per target row")
            if len(set(cols)) != len(cols):
                raise MorphismError("certificate columns must be distinct")
            if any(c not in range(phi.source[i]) for c in cols):
                raise MorphismError("certificate column outside the source")
            for j, c in enumerate(cols):
                for r in range(phi.target[i]):
                    want = spec.integer(self.scale) if r == j else spec.zero()
                    if block[r][c] != want:
                        raise MorphismError("selected columns do not form a*I")
        if phi.norm_sq() > self.slack_sq * self.scale**2:
            raise MorphismError("norm exceeds the certified weighted slack")


class SpecialCertificate:
    """A special morphism phi_tilde = (phi|phi') with a weighted certificate
    for its left block phi; construction checks it, so a false one raises.
    Immutable.

    slack_sq certifies |phi_tilde|^2 <= slack_sq * |phi|^2.
    """

    __slots__ = ("morphism", "weighted", "slack_sq")

    def __init__(self, morphism: BlockMorphism, weighted: WeightedCertificate, slack_sq: Fraction):
        _set(self, "morphism", morphism)
        _set(self, "weighted", weighted)
        _set(self, "slack_sq", slack_sq)
        self._verify()

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not SpecialCertificate:
            return NotImplemented
        return (self.morphism, self.weighted, self.slack_sq) == (other.morphism, other.weighted, other.slack_sq)

    def __hash__(self) -> int:
        return hash((self.morphism, self.weighted, self.slack_sq))

    @property
    def left_counts(self) -> MultiIndex:
        return self.weighted.morphism.source

    def _verify(self) -> None:
        phi = self.weighted.morphism
        if self.morphism.split_columns(phi.source)[0] != phi:
            raise MorphismError("weighted certificate is not for the left block")
        if self.morphism.norm_sq() > self.slack_sq * phi.norm_sq():
            raise MorphismError("norm exceeds the certified special slack")


def is_weighted(phi: BlockMorphism) -> WeightedCertificate | None:
    """Search for a common positive integer scale on an identity pattern.

    Only column selection (no physical reordering) is performed.  Among the
    admissible scales the one with the least slack |phi|^2/a^2 is chosen
    (the weighted normal form wants the scale comparable to the norm), with
    ties going to the smaller scale and then to the smallest columns.
    Absent result means no certificate exists.
    """
    candidates: dict[int, list[dict[int, list[int]]]] = {}
    for i, (spec, block) in enumerate(zip(phi.product.factors, phi.blocks)):
        rows = phi.target[i]
        for c in range(phi.source[i]):
            nonzero = [r for r in range(rows) if not block[r][c].is_zero()]
            if len(nonzero) != 1:
                continue
            r = nonzero[0]
            e = block[r][c]
            a = e.nums[0]
            if a <= 0 or any(e.nums[1:]):
                continue
            per_factor = candidates.setdefault(a, [dict() for _ in phi.blocks])
            per_factor[i].setdefault(r, []).append(c)
    norm_sq = phi.norm_sq()
    for a in sorted(candidates, key=lambda a: (max(Fraction(1), norm_sq / Fraction(a * a)), a)):
        per_factor = candidates[a]
        cols = []
        ok = True
        for i in range(len(phi.blocks)):
            chosen = []
            for r in range(phi.target[i]):
                options = per_factor[i].get(r, [])
                if not options:
                    ok = False
                    break
                chosen.append(min(options))
            if not ok:
                break
            cols.append(tuple(chosen))
        if not ok:
            continue
        slack_sq = max(Fraction(1), norm_sq / Fraction(a * a))
        return WeightedCertificate(morphism=phi, scale=a, columns=tuple(cols), slack_sq=slack_sq)
    return None


def embedding_ir(cert: WeightedCertificate) -> BlockMorphism:
    """The section i_r with phi o i_r = [a] (the certificate's a*I columns)."""
    phi = cert.morphism
    blocks = []
    for i, spec in enumerate(phi.product.factors):
        g_i, r_i = phi.source[i], phi.target[i]
        block = [[spec.zero() for _ in range(r_i)] for _ in range(g_i)]
        for j, c in enumerate(cert.columns[i]):
            block[c][j] = spec.one()
        blocks.append(block)
    return BlockMorphism(phi.product, phi.target, phi.source, blocks)


def isogeny_extension(cert: WeightedCertificate) -> BlockMorphism:
    """The square extension keeping phi on the first rows and the identity
    on the non-selected coordinates; invertible after rationalization.
    """
    phi = cert.morphism
    blocks = []
    for i, spec in enumerate(phi.product.factors):
        g_i, r_i = phi.source[i], phi.target[i]
        selected = set(cert.columns[i])
        rows = [list(phi.blocks[i][r]) for r in range(r_i)]
        for c in range(g_i):
            if c not in selected:
                rows.append([spec.one() if j == c else spec.zero() for j in range(g_i)])
        blocks.append(rows)
    ext = BlockMorphism(phi.product, phi.source, phi.source, blocks)
    for spec, block in zip(ext.product.factors, ext.blocks):
        if block and linalg.det(rationalize_block(spec, block)) == 0:
            raise MorphismError("isogeny extension is not invertible")
    return ext


def _left_multiple(spec: RingSpec, x: list[int], y: list[int]) -> tuple[list[int], list[int]]:
    """Nonzero integer coordinates a, b with a*x == b*y for nonzero integer
    coordinates x, y: (y, x) commutatively, (y*conj(x), conj(x)*x) in a
    quaternion order."""
    if spec.is_commutative:
        a, b = list(y), list(x)
    else:
        xc = spec.conj_int(x)
        a, b = spec.mul_int(y, xc), spec.mul_int(xc, x)
    if not any(a) or not any(b) or spec.mul_int(a, x) != spec.mul_int(b, y):
        raise RingError("left common multiple construction failed for this ring")
    return a, b


def off_scalar(spec: RingSpec, left, right, scale: int) -> tuple[int, int] | None:
    """The first entry (i, j) where left @ right differs from scale * I, for
    square blocks of integer coordinate lists; None when they are equal."""
    n, t = len(left), spec.rank
    for i in range(n):
        for j in range(n):
            acc = [0] * t
            for p in range(n):
                for l, v in enumerate(spec.mul_int(left[i][p], right[p][j])):
                    acc[l] += v
            if acc != [scale if i == j and l == 0 else 0 for l in range(t)]:
                return i, j
    return None


def gauss_reduce(spec: RingSpec, delta0) -> tuple[list[list[RingElement]], int]:
    """Left-only Gauss elimination of a block over the order: a matrix
    delta0' and positive integer a with delta0' @ delta0 == a * I, entries
    staying in the order.

    The block is eliminated on integer coordinate lists.  Rows are
    multiplied on the left only (no commutation) by left common multiples;
    the diagonal is cleared to integers through the adjugate of each
    entry's integer right-multiplication matrix, merged by least common
    multiple.  The result and its scale have their common content taken
    out and are checked in integers against the block.
    """
    n = len(delta0)
    if n == 0:
        return [], 1
    if any(len(row) != n for row in delta0):
        raise MorphismError("gauss reduction needs a square block")
    if any(e.den != 1 for row in delta0 for e in row):
        raise MorphismError("gauss reduction needs an integral block")
    mul, t = spec.mul_int, spec.rank
    nums = [[e.nums for e in row] for row in delta0]
    work = [list(row) for row in nums]
    unit, zero = [1] + [0] * (t - 1), [0] * t
    trans = [[unit if i == j else zero for j in range(n)] for i in range(n)]

    for c in range(n):
        piv = next((r for r in range(c, n) if any(work[r][c])), None)
        if piv is None:
            raise MorphismError("gauss reduction on a rank-deficient block")
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            trans[c], trans[piv] = trans[piv], trans[c]
        for r in range(n):
            if r != c and any(work[r][c]):
                alpha, beta = _left_multiple(spec, work[r][c], work[c][c])
                for m in (work, trans):
                    m[r] = [
                        [u - v for u, v in zip(mul(alpha, x), mul(beta, y))]
                        for x, y in zip(m[r], m[c])
                    ]

    scales = []
    clearers = []
    for c in range(n):
        delta = work[c][c]
        if not any(delta):
            raise MorphismError("gauss reduction on a rank-deficient block")
        try:
            adj, d = linalg.adjugate_int(spec.right_mul_matrix(delta))
        except ValueError:
            raise MorphismError("degenerate right-multiplication matrix") from None
        sign = 1 if d > 0 else -1
        clearer = [sign * adj[i][0] for i in range(t)]
        if mul(clearer, delta) != [abs(d)] + zero[1:]:
            raise MorphismError("adjugate clearing failed")
        scales.append(abs(d))
        clearers.append(clearer)

    m = lcm(*scales)
    out = [
        [[(m // scales[c]) * v for v in mul(clearers[c], trans[c][j])] for j in range(n)]
        for c in range(n)
    ]
    content = gcd(m, *(v for row in out for e in row for v in e))
    out = [[[v // content for v in e] for e in row] for row in out]
    m //= content

    # final exactness check: delta0' @ delta0 == m * I
    if off_scalar(spec, out, nums, m) is not None:
        raise MorphismError("gauss reduction identity check failed")
    return [[spec.element(e) for e in row] for row in out], m


def weightify(psi: BlockMorphism, ambient: AmbientSpec) -> tuple[BlockMorphism, WeightedCertificate]:
    """An isogeny Delta of the target with phi = Delta o psi weighted, and
    the certificate whose morphism is phi.

    Pivot columns per factor maximize the norm of the rationalized
    determinant (ties broken by lexicographic column order).
    """
    ranks, _ = rank_and_codim(psi, ambient)
    if ranks != psi.target:
        raise MorphismError("weightify needs a surjective morphism")
    per_factor = []
    for i, (spec, block) in enumerate(zip(psi.product.factors, psi.blocks)):
        r_i, g_i = psi.target[i], psi.source[i]
        if r_i == 0:
            per_factor.append(((), [], 1))
            continue
        best_cols = None
        best_det = None
        for cols in itertools.combinations(range(g_i), r_i):
            sub = [[block[r][c] for c in cols] for r in range(r_i)]
            d = abs(linalg.det(rationalize_block(spec, sub)))
            if best_det is None or d > best_det:
                best_det, best_cols = d, cols
        if best_det is None or best_det == 0:
            raise MorphismError("no invertible pivot block; morphism not surjective")
        sub = [[block[r][c] for c in best_cols] for r in range(r_i)]
        reduced, a_i = gauss_reduce(spec, sub)
        per_factor.append((best_cols, reduced, a_i))

    m = 1
    for _, _, a_i in per_factor:
        m = lcm(m, a_i)
    delta_blocks = []
    for i, spec in enumerate(psi.product.factors):
        cols, reduced, a_i = per_factor[i]
        r_i = psi.target[i]
        factor = m // a_i
        delta_blocks.append(
            [[reduced[r][c].scale(factor) for c in range(r_i)] for r in range(r_i)]
        )
    delta = BlockMorphism(psi.product, psi.target, psi.target, delta_blocks)
    phi = delta.compose(psi)
    columns = tuple(per_factor[i][0] for i in range(len(psi.blocks)))
    slack_sq = max(Fraction(1), phi.norm_sq() / Fraction(m * m))
    return delta, WeightedCertificate(morphism=phi, scale=m, columns=columns, slack_sq=slack_sq)


def weighted_normal_form(phi: BlockMorphism, ambient: AmbientSpec) -> tuple[WeightedCertificate, bool]:
    """A certificate for phi in weighted normal form: for phi itself when
    is_weighted finds one, else for Delta o phi from weightify.  The flag
    says whether weightify ran."""
    cert = is_weighted(phi)
    if cert is not None:
        return cert, False
    return weightify(phi, ambient)[1], True
