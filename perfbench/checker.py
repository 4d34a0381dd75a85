"""Independent checker for the benchmark's outputs.

Nothing here imports nilp2.  Groups arrive as plain data ``(p, n, m, c)``
with ``c`` a dict ``{(j, i): vector}`` for 1 <= i < j <= n, elements as
``(v, w)`` tuples, and maps as lists of generator images.  The checker has
its own mod-p elimination, its own collection arithmetic and its own
formulation of the epicentre, so a fault in nilp2's code cannot hide
itself by also being in the oracle.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import itertools

import numpy as np


# -- elimination over F_p -----------------------------------------------------


def echelon(a, p: int):
    """Reduced row echelon form of ``a`` mod p and its pivot columns.

    Eliminates one pivot column at a time, touching only the rows that are
    nonzero in that column.
    """
    r = np.array(a, dtype=np.int64) % p
    rows, cols = r.shape
    pivots = []
    top = 0
    for col in range(cols):
        if top == rows:
            break
        nz = np.flatnonzero(r[top:, col])
        if nz.size == 0:
            continue
        lead = top + int(nz[0])
        if lead != top:
            r[[top, lead]] = r[[lead, top]]
        r[top] = (r[top] * pow(int(r[top, col]), p - 2, p)) % p
        hit = np.flatnonzero(r[:, col])
        hit = hit[hit != top]
        if hit.size:
            r[hit] = (r[hit] - np.outer(r[hit, col], r[top])) % p
        pivots.append(col)
        top += 1
    return r[:top], pivots


def rank(a, p: int) -> int:
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(echelon(a, p)[1])


def nullspace(a, p: int, cols: int, canonical: bool = True) -> np.ndarray:
    """Rows spanning {x : a @ x = 0 mod p}; in reduced echelon form when
    ``canonical`` is set."""
    a = np.asarray(a, dtype=np.int64).reshape(-1, cols)
    r, pivots = echelon(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:, free].T) % p
    if not free or not canonical:
        return basis
    return echelon(basis, p)[0]


def basis_tuples(rows) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in rows)


def in_span(basis, vector, p: int) -> bool:
    if not basis:
        return not any(int(x) % p for x in vector)
    return rank(list(basis) + [vector], p) == len(basis)


def gaussian_binomial(k: int, j: int, p: int) -> int:
    num = den = 1
    for t in range(j):
        num *= p ** (k - t) - 1
        den *= p ** (t + 1) - 1
    return num // den


def subspace_count(k: int, p: int) -> int:
    """Number of subgroups of C_p^k: the sum of Gaussian binomials."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


# -- groups as data -----------------------------------------------------------


class Group:
    """Class-2 exponent-p group given by raw structure constants."""

    __slots__ = ("p", "n", "m", "c", "kappa")

    def __init__(self, p, n, m, c):
        self.p, self.n, self.m = int(p), int(n), int(m)
        self.c = {(int(j), int(i)): tuple(int(x) % self.p for x in vec) for (j, i), vec in dict(c).items()}
        self.c = {key: vec for key, vec in self.c.items() if any(vec)}
        k = np.zeros((self.n, self.n, self.m), dtype=np.int64)
        for (j, i), vec in self.c.items():
            k[j - 1, i - 1] = vec
            k[i - 1, j - 1] = [(-x) % self.p for x in vec]
        self.kappa = k

    def key(self):
        return (self.p, self.n, self.m, tuple(sorted(self.c.items())))

    @classmethod
    def from_key(cls, key):
        return cls(key[0], key[1], key[2], dict(key[3]))

    def pairing(self, va, vb) -> tuple:
        """kappa(va, vb) as a derived vector."""
        out = np.einsum("j,i,jit->t", np.asarray(va, dtype=np.int64), np.asarray(vb, dtype=np.int64), self.kappa)
        return tuple(int(x) for x in out % self.p)

    def spans(self) -> bool:
        if self.m == 0:
            return True
        return rank(list(self.c.values()), self.p) == self.m if self.c else False

    def center_equals_derived(self) -> bool:
        """Z(G) = G' iff the pairing has zero radical, i.e. kappa, read as the
        n x (n*m) matrix of the maps x -> kappa(e_j, x), has rank n."""
        if self.n == 0:
            return True
        mat = self.kappa.reshape(self.n, self.n * self.m)
        return rank(mat, self.p) == self.n

    # element arithmetic by the collection rule, with Python integers

    def _delta(self, va, vb):
        p = self.p
        out = [0] * self.m
        for (j, i), vec in self.c.items():
            coef = va[j - 1] * vb[i - 1]
            if coef % p:
                for t, x in enumerate(vec):
                    out[t] += coef * x
        return [x % p for x in out]

    def mul(self, a, b):
        p = self.p
        v = tuple((x + y) % p for x, y in zip(a[0], b[0]))
        d = self._delta(a[0], b[0])
        w = tuple((x + y + z) % p for x, y, z in zip(a[1], b[1], d))
        return (v, w)

    def identity(self):
        return ((0,) * self.n, (0,) * self.m)

    def inv(self, a):
        """Inverse found by solving a * b = 1: b = (-v, -w + delta(v, v))."""
        p = self.p
        v = tuple((-x) % p for x in a[0])
        d = self._delta(a[0], a[0])
        return (v, tuple((-x + y) % p for x, y in zip(a[1], d)))

    def pow(self, a, k: int):
        """a^k by repeated squaring with the collection rule."""
        result = self.identity()
        base = a
        k %= self.p
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def comm(self, a, b):
        ab = self.mul(a, b)
        return self.mul(self.mul(ab, self.inv(a)), self.inv(b))


def rebase(group: Group, a) -> Group:
    """Presentation of the same group on the generators y_k = sum_i a[i][k] x_i.

    The new structure constants are c'(j, i) = kappa(A e_j, A e_i); the
    derived coordinates are unchanged, so the result is isomorphic to the
    input whenever A is invertible mod p.
    """
    a = np.asarray(a, dtype=np.int64) % group.p
    c = {}
    for j in range(2, group.n + 1):
        for i in range(1, j):
            vec = group.pairing(a[:, j - 1], a[:, i - 1])
            if any(vec):
                c[(j, i)] = vec
    return Group(group.p, group.n, group.m, c)


def random_invertible(rng, p: int, n: int) -> np.ndarray:
    while True:
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if rank(a, p) == n:
            return a


def random_group(rng, p: int, n: int, m: int, center_is_derived: bool) -> Group:
    """Random presentation of rank n with derived dimension m.

    Draws every structure constant uniformly and redraws until the
    commutators span F_p^m and, when asked, the pairing has zero radical.
    """
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    while True:
        g = Group(p, n, m, {pair: tuple(rng.randrange(p) for _ in range(m)) for pair in pairs})
        if g.spans() and (not center_is_derived or g.center_equals_derived()):
            return g


def direct_product(a: Group, b: Group) -> Group:
    c = {}
    for (j, i), vec in a.c.items():
        c[(j, i)] = vec + (0,) * b.m
    for (j, i), vec in b.c.items():
        c[(j + a.n, i + a.n)] = (0,) * a.m + vec
    return Group(a.p, a.n + b.n, a.m + b.m, c)


def heisenberg(p: int) -> Group:
    return Group(p, 2, 1, {(2, 1): (1,)})


def extraspecial(p: int, k: int) -> Group:
    """Extraspecial group of order p^(2k+1) and exponent p."""
    return Group(p, 2 * k, 1, {(2 * t, 2 * t - 1): (1,) for t in range(1, k + 1)})


def free_class2(p: int, n: int) -> Group:
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    return Group(p, n, len(pairs), {pair: tuple(int(t == s) for t in range(len(pairs))) for s, pair in enumerate(pairs)})


def abelian(p: int, n: int) -> Group:
    return Group(p, n, 0, {})


# -- epicentre -------------------------------------------------------------------


def epicentre(group: Group) -> tuple:
    """Echelon basis of Z*(G) inside G' for a group with Z(G) = G'.

    Uses the annihilator of the Jacobi relation space J in F_p^m (x) F_p^n
    (slot t*n + i): g lies in the epicentre iff f(g (x) e_i) = 0 for every
    functional f vanishing on J and every i.
    """
    p, n, m = group.p, group.n, group.m
    if m == 0:
        return ()
    rows = []
    for x, y, z in itertools.combinations(range(n), 3):
        vec = np.zeros(m * n, dtype=np.int64)
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            vec[np.arange(m) * n + c] += group.kappa[a, b]
        rows.append(vec % p)
    jac = np.array(rows, dtype=np.int64).reshape(-1, m * n)
    annihilator = nullspace(jac, p, m * n, canonical=False) if jac.shape[0] else np.eye(m * n, dtype=np.int64)
    if annihilator.shape[0] == 0:
        return basis_tuples(np.eye(m, dtype=np.int64))
    # f(g (x) e_i) = sum_t f[t*n + i] g_t
    blocks = annihilator.reshape(-1, m, n).transpose(2, 0, 1).reshape(-1, m)
    return basis_tuples(nullspace(blocks, p, m))


# -- homomorphisms ------------------------------------------------------------------


def induced_derived_map(dom: Group, cod: Group, images):
    """The linear map L on derived coordinates with L c(j,i) = [img_j, img_i].

    Returns L as a (cod.m, dom.m) array, or None when no linear map fits,
    i.e. when the images do not define a homomorphism.
    """
    p = dom.p
    pairs = [(j, i) for j in range(2, dom.n + 1) for i in range(1, j)]
    src = np.array([dom.c.get(pair, (0,) * dom.m) for pair in pairs], dtype=np.int64).reshape(len(pairs), dom.m)
    dst = np.array([cod.pairing(images[j - 1][0], images[i - 1][0]) for j, i in pairs], dtype=np.int64).reshape(len(pairs), cod.m)
    # Solve src @ L^T = dst: eliminate [src | dst] and read L^T off the pivots.
    r, pivots = echelon(np.concatenate([src, dst], axis=1), p)
    if any(pc >= dom.m for pc in pivots):
        return None
    lt = np.zeros((dom.m, cod.m), dtype=np.int64)
    for row, pc in enumerate(pivots):
        lt[pc] = r[row, dom.m:]
    if not np.array_equal((src @ lt) % p, dst % p):
        return None
    return lt.T.copy()


def apply_map(dom: Group, cod: Group, images, lmat, element):
    acc = cod.identity()
    for img, e in zip(images, element[0]):
        if e:
            acc = cod.mul(acc, cod.pow(img, e))
    if dom.m:
        w = tuple(int(x) for x in (lmat @ np.asarray(element[1], dtype=np.int64)) % cod.p)
        acc = cod.mul(acc, ((0,) * cod.n, w))
    return acc


def is_injective(dom: Group, cod: Group, images, lmat) -> bool:
    """Exact injectivity test, without enumerating elements.

    The kernel lies in H, the preimage of the kernel K of the abelianised
    map.  H maps into the abelian G'_cod, so the map is injective iff H is
    abelian and the images of a basis of H (x^k for k in a basis of K, and
    the derived basis vectors) are linearly independent.
    """
    p = dom.p
    amat = np.array([img[0] for img in images], dtype=np.int64).reshape(dom.n, cod.n).T
    ker = nullspace(amat, p, dom.n) if dom.n else np.zeros((0, 0), dtype=np.int64)
    for a, b in itertools.combinations(ker, 2):
        if any(dom.pairing(a, b)):
            return False
    vectors = []
    for k in ker:
        image = apply_map(dom, cod, images, lmat, (tuple(int(x) for x in k), (0,) * dom.m))
        if any(image[0]):
            return False
        vectors.append(image[1])
    for t in range(dom.m):
        vectors.append(tuple(int(x) for x in lmat[:, t]))
    return rank(vectors, p) == len(vectors) if vectors else True


# -- text format ----------------------------------------------------------------------


def read_group_text(text: str) -> Group:
    """Minimal reader for the 'nilp2 v1' group format."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if lines[0] != ["nilp2", "v1"]:
        raise ValueError("bad magic line")
    head = {key: int(val) for key, val in lines[1:4]}
    c = {(int(ln[1]), int(ln[2])): tuple(int(x) for x in ln[3:]) for ln in lines[4:] if ln[0] == "c"}
    return Group(head["p"], head["n"], head["m"], c)


def read_map_text(text: str):
    images = {}
    for ln in text.splitlines():
        tok = ln.split("#", 1)[0].split()
        if not tok:
            continue
        bar = tok.index("|")
        images[int(tok[1])] = (tuple(int(x) for x in tok[3:bar]), tuple(int(x) for x in tok[bar + 1:]))
    return [images[k] for k in sorted(images)]


def read_report(text: str) -> dict:
    out = {}
    for ln in text.splitlines():
        if " = " in ln:
            key, val = ln.split(" = ", 1)
            out[key] = val
    return out


# -- checks on outputs -------------------------------------------------------------------

CAPABLE, NOT_CAPABLE = "capable", "not_capable"


def check_verdict(group: Group, status: str, basis, expected=None) -> list:
    """Capability verdict of a group with Z(G) = G', with its epicentre basis.

    ``expected`` is a known answer, when the input family has one.
    """
    problems = []
    if not group.center_equals_derived():
        return ["input does not have Z(G) = G'"]
    truth = epicentre(group)
    if basis is not None and tuple(basis) != truth:
        problems.append(f"epicentre basis {basis} differs from recomputed {truth}")
    want = CAPABLE if not truth else NOT_CAPABLE
    if status != want:
        problems.append(f"verdict {status}, epicentre has dimension {len(truth)}")
    if expected is not None and status != expected:
        problems.append(f"verdict {status}, known answer {expected}")
    return problems


def check_embedding(dom: Group, cod: Group, images, claimed_mono: bool = True) -> list:
    lmat = induced_derived_map(dom, cod, images)
    if lmat is None:
        return ["generator images define no homomorphism"]
    injective = is_injective(dom, cod, images, lmat)
    if injective != claimed_mono:
        return [f"map claimed {'injective' if claimed_mono else 'not injective'}, recomputed {injective}"]
    return []


def check_extension(source: Group, report: dict) -> list:
    """The paper's theorem on one construction output.

    ``report`` holds mode, branch, output (Group), images, capability
    status, rp status, identified vector and the claimed bound.
    """
    out = report["output"]
    mode = report["mode"]
    problems = check_embedding(source, out, report["images"])
    if not out.center_equals_derived():
        problems.append("output does not have Z(G) = G'")
        return problems
    epi = epicentre(out)
    nonabelian = source.m > 0
    growth = out.n - source.n
    if mode == "capable":
        if epi:
            problems.append(f"G1 has a nontrivial epicentre of dimension {len(epi)}")
        if report["capability"] != CAPABLE:
            problems.append(f"G1 reported {report['capability']}")
        direct = report["branch"] == "nonabelian_capable"
        limit = 2 if direct else 3
        if nonabelian and source.center_equals_derived():
            if direct == bool(epicentre(source)):
                problems.append(f"branch {report['branch']} contradicts the input's epicentre")
        elif direct and (not nonabelian or len(source.c) != source.m):
            problems.append("input taken as capable without a certificate")
    else:
        if not epi:
            problems.append("G2 has a trivial epicentre")
        if report["capability"] != NOT_CAPABLE:
            problems.append(f"G2 reported {report['capability']}")
        if not in_span(epi, report["identified"], out.p):
            problems.append("glued vector is not in Z*(G2)")
        limit = 6 if nonabelian else 7
    if growth > limit or report["bound"] != limit:
        problems.append(f"rank grew by {growth}, claimed bound {report['bound']}, paper bound {limit}")
    if report["rp"] not in ("member", "member_by_construction"):
        problems.append(f"output rp status {report['rp']}")
    if len(out.c) <= out.m:
        problems.append("output commutators are independent, so no relation is forced")
    return problems


def check_decomposition(group: Group, left, right) -> list:
    """A central decomposition witness, recomputed element by element."""
    left, right = set(left), set(right)
    problems = []
    for name, sub in (("left", left), ("right", right)):
        if group.identity() not in sub or any(group.mul(a, b) not in sub for a in sub for b in sub):
            problems.append(f"{name} factor is not a subgroup")
    if problems:
        return problems
    one = group.identity()
    if any(group.comm(a, b) != one for a in left for b in right):
        problems.append("factors do not commute")
    order = group.p ** (group.n + group.m)
    if len(left) * len(right) != order * len(left & right):
        problems.append("factors do not cover the group")
    if left <= right or right <= left:
        problems.append("one factor contains the other")
    return problems


def check_axioms(group: Group, triples, outputs) -> list:
    """Group-axiom batch: outputs[k] = (ab, (ab)c, a(bc), a^-1, a^e, e) per triple."""
    problems = []
    one = group.identity()
    for (a, b, c), (ab, ab_c, a_bc, a_inv, a_pow, e) in zip(triples, outputs):
        if ab != group.mul(a, b) or ab_c != group.mul(ab, c) or a_bc != group.mul(a, group.mul(b, c)):
            problems.append(f"product mismatch for {a}, {b}, {c}")
        if ab_c != a_bc:
            problems.append("associativity fails")
        if group.mul(a, a_inv) != one or a_inv != group.inv(a):
            problems.append(f"inverse mismatch for {a}")
        if a_pow != group.pow(a, e):
            problems.append(f"power mismatch for {a}^{e}")
        if group.pow(a, group.p) != one:
            problems.append("exponent is not p")
    if len(outputs) != len(triples):
        problems.append("batch is incomplete")
    return problems
