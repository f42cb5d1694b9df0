"""Conjugate posteriors for capacities and detection probabilities.

Capacity rows follow a Normal-Inverse-Gamma (Nig) linear regression
whose one-step-ahead predictive is Student-t; m rows on one design and
one prior are one Nig of m responses, fitted through one Cholesky
factor.  Detection probabilities follow independent Beta-Binomial
cells.  The frequentist comparator, ordinary least squares, is the Nig
posterior under the reference prior p(beta, sigma^2) ∝ 1/sigma^2, whose
predictive is the classical t prediction law (Gelman et al., Bayesian
Data Analysis, 3rd ed., 14.2 and 14.8).

Three posterior models feed scenario programs, robust tightenings and
certificates: StudentTRhs (fixed rows, Student-t right-hand sides),
GaussianRows (jointly Gaussian rows, also the centres and factors of
the credible ellipsoids) and BetaCoverage (Beta detection cells against
a coverage floor).  Each has draw(rng, count) and as_rows(batch), the
draws as rows coeff @ x <= rhs; residuals(x, batch) = coeff @ x - rhs
is derived from as_rows once for all three.  The fits produce these
models: StudentTRhs.from_nig turns one Nig fit (fit_nig or fit_ols)
into each response's predictive at one context, and fit_beta_binomial
returns a BetaCoverage.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import stats
from .errors import (
    CountOutOfRange,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    NotPositiveDefinite,
    RankDeficient,
    SingularPrecision,
)

__all__ = [
    "Nig",
    "PanelData",
    "fit_nig",
    "fit_ols",
    "fit_beta_binomial",
    "load_panel_data",
    "StudentTRhs",
    "GaussianRows",
    "BetaCoverage",
    "psd_factor",
]


def _spd_solve(mat: np.ndarray, b: np.ndarray, error=SingularPrecision,
               message="precision matrix is not positive definite") -> np.ndarray:
    """mat^{-1} b through one Cholesky factor of mat, for every column
    of b at once; error(message) when mat is not positive definite, and
    SingularPrecision when it is not exactly symmetric (the factor would
    read only its lower triangle)."""
    mat = np.asarray(mat, dtype=float)
    if not np.array_equal(mat, mat.T):
        raise SingularPrecision("precision matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise error(message) from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def psd_factor(cov) -> np.ndarray:
    """Square root F with F F' = cov.

    Cholesky when positive definite (lower triangular, positive
    diagonal); a symmetric eigendecomposition root when the matrix is
    merely positive semidefinite, so degenerate directions (zero
    variance) are allowed.  Indefinite input raises NotPositiveDefinite;
    input that is not a finite square matrix raises DomainError.
    """
    cov = _float_array("covariance", cov, 2)
    if cov.shape[0] != cov.shape[1]:
        raise DomainError(f"covariance must be square, got shape {cov.shape}")
    sym = 0.5 * (cov + cov.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(sym)
    scale = max(float(vals.max(initial=0.0)), 1.0)
    if vals.min(initial=0.0) < -1e-10 * scale:
        raise NotPositiveDefinite("covariance has a negative eigenvalue")
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)[np.newaxis, :]


@dataclass(frozen=True)
class Nig:
    """Normal-Inverse-Gamma law of m regressions on one design: response
    j has sigma_j^2 ~ InvGamma(shape, rate_j) and beta_j | sigma_j^2 ~
    N(mean[:, j], sigma_j^2 precision^{-1}).  mean is (d,) or (d, m) and
    rate a scalar or (m,); a (d,) mean or a scalar rate applies to every
    response.  A prior and a posterior are the same type, so a posterior
    serves as the next prior as it is."""

    mean: np.ndarray
    precision: np.ndarray
    shape: float
    rate: float | np.ndarray

    @classmethod
    def default(cls, dim: int) -> "Nig":
        """Weak default: zero mean, 1e-2 I precision, shape 2, rate 2."""
        return cls(mean=np.zeros(dim), precision=1e-2 * np.eye(dim),
                   shape=2.0, rate=2.0)


def _check_regression(design, Y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(design, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("design must be a 2-d array")
    if Y.ndim not in (1, 2) or Y.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"Y has shape {Y.shape}, expected {X.shape[0]} rows")
    return X, Y


def fit_nig(design: np.ndarray, Y: np.ndarray, prior: Nig) -> Nig:
    """Conjugate update of a Normal-Inverse-Gamma regression prior.

    Y is (n,) or (n, m): m responses on one design share one Cholesky
    factor.  Per response y, with prior mean b_0 and posterior mean b_n,

    precision_n = precision_0 + X'X
    b_n         = precision_n^{-1} (precision_0 b_0 + X'y)
    shape_n     = shape_0 + n/2
    rate_n      = rate_0 + ((y - X b_n)'y + (b_0 - b_n)'precision_0 b_0) / 2

    The rate uses the residual form, algebraically equal to the textbook
    rate_0 + (y'y + b_0' precision_0 b_0 - b_n' precision_n b_n)/2
    but without the large-term cancellation.
    """
    X, Y = _check_regression(design, Y)
    n, d = X.shape
    Y2 = Y[:, np.newaxis] if Y.ndim == 1 else Y
    m0 = np.asarray(prior.mean, dtype=float)
    lam0 = np.asarray(prior.precision, dtype=float)
    if (m0.shape not in ((d,), (d, Y2.shape[1])) or lam0.shape != (d, d)
            or np.shape(prior.rate) not in ((), (Y2.shape[1],))):
        raise DimensionMismatch("prior dimensions do not match the design and Y")
    if prior.shape <= 0.0 or np.any(np.asarray(prior.rate) <= 0.0):
        raise DomainError("prior shape and rate must be positive")
    # A (d,) prior mean is one column that every response shares; left
    # 1-d it would broadcast along the wrong axis of X'Y when d == m.
    B0 = m0[:, np.newaxis] if m0.ndim == 1 else m0
    b0 = lam0 @ B0
    lam_n = lam0 + X.T @ X
    B_n = _spd_solve(lam_n, b0 + X.T @ Y2)
    rate_n = prior.rate + 0.5 * (
        ((Y2 - X @ B_n) * Y2).sum(axis=0) + ((B0 - B_n) * b0).sum(axis=0)
    )
    return Nig(mean=B_n.reshape((d,) + Y.shape[1:]), precision=lam_n,
               shape=prior.shape + 0.5 * n, rate=rate_n.reshape(Y.shape[1:])[()])


def fit_ols(design: np.ndarray, Y: np.ndarray) -> Nig:
    """Ordinary least squares as the reference-prior Nig posterior.

    Y is (n,) or (n, m) as for fit_nig.  mean = the OLS coefficients,
    precision = X'X, shape = (n - d)/2 and rate = RSS/2 per response, so
    rate/shape is the classical s^2 = RSS/(n - d) and StudentTRhs.from_nig
    gives the t prediction law with n - d degrees of freedom.  Requires
    n > d and a full-column-rank design; raises RankDeficient otherwise.
    """
    X, Y = _check_regression(design, Y)
    n, d = X.shape
    if n <= d:
        raise RankDeficient(f"need more observations than regressors: n={n}, d={d}")
    gram = X.T @ X
    coef = _spd_solve(gram, X.T @ Y, RankDeficient, "design matrix is rank deficient")
    resid = Y - X @ coef
    return Nig(mean=coef, precision=gram, shape=0.5 * (n - d),
               rate=0.5 * (resid * resid).sum(axis=0))


# ---------------------------------------------------------------------------
# Beta-Binomial detection fit
# ---------------------------------------------------------------------------


def fit_beta_binomial(
    detected: np.ndarray,
    cluster_sizes: np.ndarray,
    threshold: float,
    a0: float = 1.0,
    b0: float = 1.0,
) -> BetaCoverage:
    """Beta posterior per cell, a = a0 + s and b = b0 + n - s, as a
    BetaCoverage with floor threshold.

    detected is (J, K) counts; cluster_sizes is (J,) cells per cluster.
    The uniform prior a0 = b0 = 1 is the default.  A zero-cell cluster is
    a vacuous update: its posterior row equals the prior.
    """
    s = np.asarray(detected, dtype=float)
    n = np.asarray(cluster_sizes, dtype=float)
    if s.ndim != 2:
        raise DimensionMismatch("detected must be a 2-d array")
    if n.shape != (s.shape[0],):
        raise DimensionMismatch(
            f"cluster_sizes has shape {n.shape}, expected ({s.shape[0]},)"
        )
    if a0 <= 0.0 or b0 <= 0.0:
        raise DomainError("prior pseudo-counts must be positive")
    if np.any(n < 0):
        raise CountOutOfRange("cluster sizes must be nonnegative")
    if np.any(s < 0) or np.any(s > n[:, None]):
        raise CountOutOfRange("detected counts must lie in [0, n_cells]")
    return BetaCoverage(a=a0 + s, b=b0 + n[:, None] - s, threshold=threshold)


# ---------------------------------------------------------------------------
# Posterior models: draw a batch, state it as rows, score residuals
# ---------------------------------------------------------------------------


def _numbers_only(value) -> bool:
    """Whether value holds only numbers; a string, a bool or None is not one."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(_numbers_only(v) for v in value)
    return isinstance(value, Real) and not isinstance(value, bool)


def _float_array(name: str, value, ndim: int) -> np.ndarray:
    if not _numbers_only(value):
        raise DomainError(f"{name} must hold only finite numbers, "
                          "not strings, bools or nulls")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be numeric: {exc}") from exc
    if arr.ndim != ndim:
        raise DomainError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


class _DrawnRows:
    """Base of the built-in families.  draw(rng, count) returns a batch
    whose first axis indexes the draws; as_rows(batch) returns (coeff,
    rhs), constraint i under draw k being coeff[k, i] @ x <= rhs[k, i]
    (coeff may leave out the draw axis when the rows are fixed); and
    residuals(x, batch), (count, n_constraints), is positive where a
    draw violates a constraint at x."""

    def residuals(self, x: np.ndarray, batch: np.ndarray) -> np.ndarray:
        coeff, rhs = self.as_rows(batch)
        return coeff @ x - rhs


@dataclass(frozen=True, eq=False)
class StudentTRhs(_DrawnRows):
    """Fixed rows with independent Student-t right-hand sides.

    Constraint i is rows[i] @ x <= b_i with b_i ~ loc_i + scale_i t(dof_i).
    """

    rows: np.ndarray  # (m, n)
    dof: np.ndarray  # (m,)
    loc: np.ndarray  # (m,)
    scale: np.ndarray  # (m,)

    def __post_init__(self):
        rows = _float_array("rows", self.rows, 2)
        for name in ("dof", "loc", "scale"):
            arr = _float_array(name, getattr(self, name), 1)
            if arr.shape != (rows.shape[0],):
                raise DomainError(
                    f"{name} has shape {arr.shape}, expected ({rows.shape[0]},)"
                )
            if name != "loc" and np.any(arr <= 0.0):
                raise DomainError(f"{name} must be positive")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_nig(cls, rows, post: Nig, x_ctx) -> "StudentTRhs":
        """The predictive of each of post's responses at context x_ctx,
        response j bounding rows[j]; a (d,) mean with a scalar rate is one
        response, and another row count raises DimensionMismatch.

        dof = 2 shape_n, loc_j = x'mean_n[:, j],
        scale_j = sqrt(rate_n[j]/shape_n * (1 + x' precision_n^{-1} x)).
        For fit_ols this is the t prediction law: dof = n - d,
        loc = x'coef, scale = sqrt(s^2 (1 + x'(X'X)^{-1} x)).
        """
        x = np.asarray(x_ctx, dtype=float)
        mean = np.asarray(post.mean, dtype=float)
        if x.shape != mean.shape[:1]:
            raise DimensionMismatch(f"x_ctx has shape {x.shape}, not {mean.shape[:1]}")
        h = float(x @ _spd_solve(post.precision, x))
        loc = x @ mean
        scale2 = np.asarray(post.rate, dtype=float) / post.shape * (1.0 + h)
        count = max(loc.size, scale2.size)
        if len(rows) != count or not {loc.shape, scale2.shape} <= {(), (count,)}:
            raise DimensionMismatch(
                f"{len(rows)} rows for a posterior with mean {mean.shape} "
                f"and rate {scale2.shape}")
        if np.any(scale2 <= 0.0):
            raise DomainError("nonpositive predictive variance")
        return cls(rows=rows, dof=np.full(count, 2.0 * post.shape),
                   loc=np.broadcast_to(loc, count),
                   scale=np.broadcast_to(np.sqrt(scale2), count))

    def draw(self, rng: stats.Rng, count: int) -> np.ndarray:
        """(count, m) right-hand sides, one Student-t draw for all rows.

        A dof that every row shares goes to numpy as a scalar, which
        draws the same values as the per-row array, only faster.
        """
        size = (count, self.dof.size)
        dof = self.dof
        if dof.size and (dof == dof[0]).all():
            dof = dof[0]
        return self.loc + self.scale * rng.generator.standard_t(dof, size)

    def as_rows(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.rows, batch


@dataclass(frozen=True, eq=False)
class GaussianRows(_DrawnRows):
    """Jointly Gaussian rows (a_i, b_i) of constraints a_i @ x <= b_i.

    Row i is centers[i] + factors[i] @ z with z standard normal, so
    factors[i] is a square root (e.g. the Cholesky factor) of its
    covariance.
    """

    centers: np.ndarray  # (R, n + 1)
    factors: np.ndarray  # (R, n + 1, n + 1)

    def __post_init__(self):
        centers = _float_array("centers", self.centers, 2)
        factors = _float_array("factors", self.factors, 3)
        r, dim = centers.shape
        if r < 1:
            raise DomainError("gaussian rows need at least one row")
        if factors.shape != (r, dim, dim):
            raise DomainError(
                f"factors have shape {factors.shape}, expected ({r}, {dim}, {dim})"
            )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_covs(cls, centers, covs) -> "GaussianRows":
        """Rows with the given covariances, each factored by psd_factor."""
        return cls(centers=centers, factors=[psd_factor(cov) for cov in covs])

    def draw(self, rng: stats.Rng, count: int) -> np.ndarray:
        """(count, R, n + 1) sampled rows."""
        noise = rng.generator.standard_normal((count,) + self.centers.shape)
        return self.centers + np.einsum("crk,rjk->crj", noise, self.factors)

    def as_rows(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return batch[..., :-1], batch[..., -1]


@dataclass(frozen=True, eq=False)
class BetaCoverage(_DrawnRows):
    """Coverage floors q_j @ x >= threshold with Beta(a, b) cells q_jk,
    stated as the rows -q_j @ x <= -threshold."""

    a: np.ndarray  # (J, K)
    b: np.ndarray  # (J, K)
    threshold: float

    def __post_init__(self):
        a = _float_array("a", self.a, 2)
        b = _float_array("b", self.b, 2)
        if a.shape != b.shape:
            raise DomainError(
                f"a and b must have matching shapes, got {a.shape} and {b.shape}"
            )
        if np.any(a <= 0.0) or np.any(b <= 0.0):
            raise DomainError("beta parameters must be positive")
        threshold = float(_float_array("threshold", self.threshold, 0))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "threshold", threshold)

    def draw(self, rng: stats.Rng, count: int) -> np.ndarray:
        """(count, J, K) detection-probability matrices."""
        return rng.generator.beta(self.a, self.b, (count,) + self.a.shape)

    def restrict(self, genes) -> "BetaCoverage":
        """The model on the gene columns genes (indices, in order) only.

        Its cells are the same independent Betas, so a decision that is
        zero off genes has the same coverage law under either model.
        """
        return BetaCoverage(a=self.a[:, genes], b=self.b[:, genes],
                            threshold=self.threshold)

    def as_rows(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return -batch, np.full(batch.shape[:-1], -self.threshold)


# ---------------------------------------------------------------------------
# CSV ingestion for the panel pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PanelData:
    """Aligned panel inputs: genes ordered as in the weights file,
    clusters sorted by identifier."""

    genes: tuple[str, ...]
    clusters: tuple[str, ...]
    weights: np.ndarray  # (K,)
    detected: np.ndarray  # (J, K)
    cluster_sizes: np.ndarray  # (J,)


def _read_csv_rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path}: empty file")
        if [h.strip() for h in header] != list(expected_header):
            raise DomainError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        for row in rows:
            if len(row) != len(expected_header):
                raise DomainError(
                    f"{path}: row {row!r} has {len(row)} fields, "
                    f"expected {len(expected_header)}"
                )
        return rows



def _parse_number(cell: str, kind, path, what: str):
    try:
        return kind(cell)
    except ValueError as exc:
        raise DomainError(f"{path}: {what} {cell!r} is not numeric") from exc

def load_panel_data(detections_path, clusters_path, weights_path) -> PanelData:
    """Read detections.csv, clusters.csv, and weights.csv.

    weights.csv fixes the candidate gene pool and its order; clusters are
    sorted by name.  (cluster, gene) pairs absent from detections.csv are
    zero detections.  A weight that is not finite, unknown genes or
    clusters in detections.csv, and a (cluster, gene) pair listed twice
    there are errors.
    """
    weight_rows = _read_csv_rows(weights_path, ("gene", "weight"))
    genes: list[str] = []
    weights: list[float] = []
    seen = set()
    for row in weight_rows:
        gene = row[0].strip()
        if gene in seen:
            raise DomainError(f"duplicate gene {gene!r} in weights file")
        seen.add(gene)
        genes.append(gene)
        weight = _parse_number(row[1], float, weights_path, "weight")
        if not np.isfinite(weight):
            raise DomainError(f"{weights_path}: gene {gene!r} has weight {weight!r}, "
                              "which is not finite")
        weights.append(weight)
    if not genes:
        raise EmptyInput("weights file lists no genes")

    cluster_rows = _read_csv_rows(clusters_path, ("cluster", "n_cells"))
    sizes: dict[str, int] = {}
    for row in cluster_rows:
        name = row[0].strip()
        if name in sizes:
            raise DomainError(f"duplicate cluster {name!r} in clusters file")
        n_cells = _parse_number(row[1], int, clusters_path, "n_cells")
        if n_cells < 1:
            raise CountOutOfRange(f"cluster {name!r} has n_cells < 1")
        sizes[name] = n_cells
    if not sizes:
        raise EmptyInput("clusters file lists no clusters")
    clusters = tuple(sorted(sizes))
    cluster_index = {name: j for j, name in enumerate(clusters)}
    gene_index = {g: k for k, g in enumerate(genes)}

    detected = np.zeros((len(clusters), len(genes)))
    det_rows = _read_csv_rows(detections_path, ("cluster", "gene", "detected_count"))
    listed = set()
    for row in det_rows:
        cname, gname = row[0].strip(), row[1].strip()
        if cname not in cluster_index:
            raise DomainError(f"detections reference unknown cluster {cname!r}")
        if gname not in gene_index:
            raise DomainError(f"detections reference unknown gene {gname!r}")
        count = _parse_number(row[2], int, detections_path, "detected_count")
        if (cname, gname) in listed:
            raise DomainError(
                f"detections list ({cname}, {gname}) more than once"
            )
        listed.add((cname, gname))
        j, k = cluster_index[cname], gene_index[gname]
        if count < 0 or count > sizes[cname]:
            raise CountOutOfRange(
                f"detected_count {count} outside [0, {sizes[cname]}] "
                f"for ({cname}, {gname})"
            )
        detected[j, k] = count
    return PanelData(
        genes=tuple(genes),
        clusters=clusters,
        weights=np.asarray(weights, dtype=float),
        detected=detected,
        cluster_sizes=np.asarray([sizes[c] for c in clusters], dtype=float),
    )
