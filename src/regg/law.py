"""The one per-trial spectral loop, Monte-Carlo sweeps of the resolvent
error statistics against their envelopes, and envelope-constant fitting.

One eigendecomposition per sampled graph serves the whole z-grid; the
per-z evaluations are vectorized across the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientDataError, InvalidParametersError
from .graphs import check_ram, sample_model
from .rng import stream
from .spectral import (ResolventView, build_H, default_xi, effective_D,
                       eigvalsh_inplace, f_envelope, grid_bytes, m_semicircle,
                       phi_envelope, routine)

__all__ = [
    "LawRecord",
    "SweepPlan",
    "per_trial",
    "law_sweep",
    "records_for_view",
    "fit_envelope_constant",
    "write_law_csv",
    "write_table",
    "read_table",
    "CSV_VERSION",
]

CSV_VERSION = "v3"


@dataclass(frozen=True)
class LawRecord:
    """Error statistics and envelope values for one (sample, z) pair."""

    model: str
    N: int
    d: int
    seed: int
    trial: int
    E: float
    eta: float
    max_diag_err: float
    max_offdiag: float
    s_minus_m: float
    phi: float
    f_xi_phi: float


#: the law CSV's columns: LawRecord's fields, in order
_CSV_COLUMNS = [f.name for f in fields(LawRecord)]


#: largest fitted ratio of each error statistic to its envelope, diagonal
#: and off-diagonal, at which a sweep passes
ACCEPTANCE_CONSTANT = 10.0

#: smallest eta a sweep grid may contain
ETA_FLOOR = 1e-8

#: most points an energy grid may hold, a sweep's energies or the bins of
#: eigen --mode intervals
E_GRID_MAX = 100_000


@dataclass(frozen=True)
class SweepPlan:
    """Grid and sampling plan for one sweep.  SweepPlan.standard(n) is the
    standard protocol: E from -2.4 to 2.4 in steps of 0.2 and dyadic eta
    from 1 down to 64/N, one sample."""

    e_grid: tuple[float, ...]
    eta_grid: tuple[float, ...]
    samples: int

    def __post_init__(self) -> None:
        if not self.e_grid or not self.eta_grid:
            raise InvalidParametersError("grids must be nonempty")
        if self.samples < 1:
            raise InvalidParametersError("samples must be at least 1")
        if any(eta <= 0 for eta in self.eta_grid):
            raise InvalidParametersError("all eta must be positive")
        if any(eta < ETA_FLOOR for eta in self.eta_grid):
            raise InvalidParametersError(
                f"eta grid goes below the floor {ETA_FLOOR}")

    @staticmethod
    def dyadic_etas(eta_min: float, eta_max: float = 1.0) -> tuple[float, ...]:
        """{eta_max * 2^-k} down to the last value >= eta_min.  Both bounds
        must be finite and eta_min positive, or the halving never falls
        below eta_min, and eta_min at most eta_max, or the grid is empty."""
        if not (0 < eta_min < math.inf and math.isfinite(eta_max)):
            raise InvalidParametersError(
                f"eta bounds must be finite with eta_min > 0, got "
                f"eta_min = {eta_min}, eta_max = {eta_max}")
        if eta_min > eta_max:
            raise InvalidParametersError(
                f"the eta grid is empty: eta_min = {eta_min} exceeds "
                f"eta_max = {eta_max}")
        out = []
        eta = float(eta_max)
        while eta >= eta_min:
            out.append(eta)
            eta /= 2
        return tuple(out)

    @classmethod
    def standard(cls, n: int, samples: int = 1, e_min: float = -2.4,
                 e_max: float = 2.4, e_step: float = 0.2,
                 eta_min: float | None = None,
                 eta_max: float = 1.0) -> "SweepPlan":
        """`samples` graphs of size n on the energies from e_min to e_max in
        steps of e_step and dyadic_etas(eta_min, eta_max), eta_min 64/n if
        None.  n < 1 raises InvalidParametersError, and so does an empty,
        non-finite or over-long grid, naming the lawsweep flags of the
        bounds, before the energies are built."""
        if n < 1:
            raise InvalidParametersError(f"a sweep needs n >= 1, got {n}")
        eta_grid = cls.dyadic_etas(64.0 / n if eta_min is None else eta_min,
                                   eta_max)
        if not e_step > 0:
            raise InvalidParametersError("--e-step must be positive")
        if e_max < e_min:
            raise InvalidParametersError(
                f"the energy grid is empty: --e-max {e_max} lies below "
                f"--e-min {e_min}")
        span = (e_max - e_min) / e_step
        if not math.isfinite(span):
            raise InvalidParametersError(
                f"the energy grid from --e-min {e_min} to --e-max {e_max} in "
                f"steps of {e_step} is not finite")
        count = int(round(span)) + 1
        if count > E_GRID_MAX:
            raise InvalidParametersError(
                f"the energy grid from --e-min {e_min} to --e-max {e_max} in "
                f"steps of {e_step} has {count} points, more than "
                f"{E_GRID_MAX}")
        return cls(e_grid=tuple(round(e_min + k * e_step, 12)
                                for k in range(count)),
                   eta_grid=eta_grid, samples=samples)


def records_for_view(view: ResolventView, model: str, n: int, d: int,
                     seed: int, trial: int, plan: SweepPlan) -> list[LawRecord]:
    """Evaluate all grid points against one decomposed sample, with the
    envelopes' D = effective_D(n, d, model) and xi = default_xi(n)."""
    zs = np.array([complex(E, eta) for E in plan.e_grid for eta in plan.eta_grid])
    diag, off = view.grid(zs)
    D, xi = effective_D(n, d, model), default_xi(n)

    records = []
    for k, z in enumerate(zs):
        m = m_semicircle(z)
        phi = phi_envelope(z, n, D)
        records.append(LawRecord(
            model=model, N=n, d=d, seed=seed, trial=trial,
            E=float(z.real), eta=float(z.imag),
            max_diag_err=float(np.abs(diag[:, k] - m).max()),
            max_offdiag=float(np.abs(off[:, k]).max()) if off.size else 0.0,
            s_minus_m=float(abs(diag[:, k].mean() - m)),
            phi=float(phi),
            f_xi_phi=float(f_envelope(z, min(1.0, xi * phi))),
        ))
    return records


def per_trial(model: str, n: int, d: int, keys, stat,
              vectors: bool = True) -> list:
    """[stat(seed, trial, spectrum) for (seed, trial) in keys] on graphs from
    stream(seed, trial): ResolventView(build_H(g)) with pair_seed = seed or,
    without `vectors`, the ascending eigenvalues of A / sqrt(d-1).  Each is
    dropped before the next trial's matrix is built; stat must not hold it.
    The LAPACK and BLAS routines are resolved first, so a library without
    one fails before any graph is sampled."""
    for name in (("dsytrd", "dstedc", "dormtr", "dgemm") if vectors
                 else ("dsyevd_2stage",)):
        routine(name)
    out = []
    for seed, trial in keys:
        g = sample_model(model, n, d, stream(seed, trial))
        spectrum = (ResolventView(build_H(g), pair_seed=seed)
                    if vectors else
                    eigvalsh_inplace(g.upper_triangle(math.sqrt(d - 1))))
        out.append(stat(seed, trial, spectrum))
        del spectrum  # before the next trial's build and decomposition
    return out


def law_sweep(plan: SweepPlan, model: str, n: int, d: int,
              seed: int) -> list[LawRecord]:
    """Sample `plan.samples` graphs and evaluate the full grid on each.
    Deterministic given the seed; trial streams are independent.  Raises
    InvalidParametersError before sampling when one sample's grid arrays
    would not fit in physical RAM."""
    nz = len(plan.e_grid) * len(plan.eta_grid)
    check_ram(grid_bytes(n, nz),
              f"the z-grid arrays of {nz} points at N = {n}")
    per = per_trial(model, n, d, [(seed, t) for t in range(plan.samples)],
                    lambda s, t, view: records_for_view(
                        view, model, n, d, s, t, plan))
    return [r for records in per for r in records]


def fit_envelope_constant(records: list[LawRecord]) -> dict:
    """99th-percentile ratio of each error statistic to its envelope.

    The off-diagonal envelope is xi Phi with xi = default_xi(N) of each
    record's N, the xi its f_xi_phi was built with.  Records whose
    effective_D(N, d, model) is below 1 are dropped: there 1/sqrt(D) > 1
    and the envelopes carry no content.
    """
    usable = [r for r in records if effective_D(r.N, r.d, r.model) >= 1]
    if not usable:
        regimes = sorted({f"{r.model} model, effective D = "
                          f"{effective_D(r.N, r.d, r.model):.4g}"
                          for r in records})
        raise InsufficientDataError(
            f"no usable records, each has D < 1: {'; '.join(regimes)}")
    diag = np.array([r.max_diag_err / r.f_xi_phi for r in usable])
    off = np.array([r.max_offdiag / (default_xi(r.N) * r.phi)
                    for r in usable])
    s = np.array([r.s_minus_m / r.f_xi_phi for r in usable])
    return {
        "C_diag": float(np.percentile(diag, 99)),
        "C_offdiag": float(np.percentile(off, 99)),
        "C_s": float(np.percentile(s, 99)),
        "records_used": len(usable),
    }


# ---------------------------------------------------------------------------
# CSV persistence (schema-versioned; floats via repr for byte stability)

def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path: str, kind: str, columns: list[str], rows: list[list]) -> None:
    """Versioned CSV: '# regg-csv <CSV_VERSION> <kind>' header line, then
    columns."""
    lines = [f"# regg-csv {CSV_VERSION} {kind}", ",".join(columns)]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str, kind: str) -> tuple[list[str], list[list[str]]]:
    """Read a versioned CSV of the given kind; rejects other versions."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# regg-csv "):
        raise InvalidParametersError(f"{path}: missing schema header")
    tag = lines[0].split()
    if tag[2] != CSV_VERSION or tag[3] != kind:
        raise InvalidParametersError(f"{path}: unsupported schema {lines[0]!r}")
    columns = lines[1].split(",")
    return columns, [line.split(",") for line in lines[2:] if line]


def write_law_csv(records: list[LawRecord], path: str) -> None:
    rows = [[getattr(r, c) for c in _CSV_COLUMNS] for r in records]
    write_table(path, "law", _CSV_COLUMNS, rows)
