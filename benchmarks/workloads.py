"""Named benchmark workloads: fixed lists of ``sympow`` CLI jobs.

Each job is the argv of one CLI invocation, run with the CLI's own defaults
(in particular ``--threads = os.cpu_count()``).  One job per workload is the
rung, the job that dominates the pass; ``rest_s`` is the pass without it.

The workload seed reaches the program only as ``--seed``, and only on the
``generic`` and ``verify`` workloads; the other two are seed-free.

``BENCHMARK.json`` lists ``generic`` and ``verify``.  ``finite-cover`` and
``algebra`` run by name only: on a shared 2-core host whose speed drifted
by up to 2x over minutes, their ``wall_s`` and ``rest_s`` spread more than
25% between runs (``rest_s`` of ``finite-cover`` in five of six ten-run
sets), beyond the largest bound the benchmark may set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# The CLI's default --seed; outputs are pinned byte for byte at this seed.
DEFAULT_SEED = 0

# Largest dense cell count that base_change may allocate for one job.  The
# shipped workloads stay far below it; the g=3, k=2, N=3 cover (about 108M
# cells, summed over its boundary matrices) is refused before it runs.
DEFAULT_CELL_CAP = 20_000_000


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    rung: bool = False

    @property
    def job_id(self) -> str:
        return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(self.argv)).strip("_")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    jobs: tuple[Job, ...]

    def argvs(self, seed: int) -> list[list[str]]:
        """CLI argv of every job, with the workload seed where it applies."""
        out = []
        for job in self.jobs:
            argv = list(job.argv)
            if self.seeded:
                argv += ["--seed", str(seed)]
            out.append(argv)
        return out

    def rung_index(self) -> int:
        return next(i for i, j in enumerate(self.jobs) if j.rung)


def _job(cmd: str, rung: bool = False) -> Job:
    return Job(tuple(cmd.split()), rung)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "generic",
        "fraction-field homology by specialization; dense modp_rank and the trial thread pool dominate",
        True,
        (
            _job("cover-homology --genus 5 --k 5", rung=True),
            _job("cover-homology --genus 5 --k 4"),
            _job("quotient-homology --genus 5 --k 5"),
            _job("wedge-homology --arity 10 --k 5"),
            _job("cover-homology --genus 4 --k 4"),
            _job("cover-homology --genus 3 --k 3"),
        ),
    ),
    Workload(
        "finite-cover",
        "exact integer homology of (Z/N)^2g covers; SNF pivot search and dense base_change dominate",
        False,
        (
            _job("cover-homology --genus 2 --k 2 --method snf --N 3", rung=True),
            _job("cover-homology --genus 2 --k 3 --method snf --N 2"),
            _job("cover-homology --genus 3 --k 1 --method snf --N 2"),
            _job("cover-homology --genus 2 --k 2 --method snf --N 2"),
            _job("quotient-homology --genus 2 --k 2 --method snf --N 2"),
        ),
    ),
    Workload(
        "verify",
        "machine-checked suites; Bareiss integer_rank on the N=3 cover dominates, small suites hit every kernel",
        True,
        (
            _job("verify --suite theorem-main --genus 2 --k 2 --N 3 --format json", rung=True),
            _job("verify --suite all --genus 2 --format json"),
            _job("verify --suite lemma-cohomology --genus 3 --format json"),
            _job("verify --suite lemma-q --genus 4 --k 4 --format json"),
            _job("verify --suite lemma-torus --arity 8 --k 4 --format json"),
            _job("verify --suite mattuck --genus 3 --format json"),
        ),
    ),
    Workload(
        "algebra",
        "builders, DGA and group ring with no linear algebra; export and exhaustive DGA checks",
        False,
        (
            _job("export --genus 6 --k 6 --case cover", rung=True),
            _job("export --genus 5 --k 5 --case cover --format json"),
            _job("export --genus 6 --k 6 --case q"),
            _job("export --arity 12 --k 6 --case wedge"),
            _job("verify --suite dga --genus 4 --k 4 --format json"),
            _job("verify --suite nonfg --genus 5 --k 4 --format json"),
        ),
    ),
)}

# Opt-in reach rungs: too slow for the default run, never a named workload.
REACH_JOBS: tuple[Job, ...] = (
    _job("cover-homology --genus 3 --k 2 --method snf --N 2"),
    _job("verify --suite theorem-main --genus 3 --k 2 --format json"),
    _job("quotient-homology --genus 3 --k 3 --method snf --N 2"),
)


def flag_value(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _complex_cells(complex_, N: int) -> int:
    """Dense cells of every boundary matrix of ``base_change(complex_, N)``."""
    bs = N ** complex_.ctx.ring.nvars
    return sum(m.rows * m.cols * bs * bs for m in complex_.boundaries[1:])


def base_change_cells(argv: list[str]) -> int:
    """Upper estimate of the dense cells one job's ``base_change`` allocates.

    Computed from the shapes of the group-ring boundary matrices, which are
    small to build; no base change is performed.  The estimate is the largest single
    base-changed complex the job builds.
    """
    from sympow.complexes import build_cover_complex, build_Q_complex

    genus = int(flag_value(argv, "--genus", 2))
    k = flag_value(argv, "--k")
    n_flag = flag_value(argv, "--N")
    jobs: list[tuple] = []  # (builder, args, N)
    if argv[0] in ("cover-homology", "quotient-homology") and flag_value(argv, "--method") == "snf":
        builder = build_cover_complex if argv[0] == "cover-homology" else build_Q_complex
        jobs.append((builder, (genus, int(k)), int(n_flag or 1)))
    elif argv[0] == "verify":
        suite = flag_value(argv, "--suite")
        n_list = (1, int(n_flag)) if n_flag not in (None, "1") else (1, 2)
        if suite in ("theorem-main", "all"):
            kk = int(k) if (k is not None and suite != "all") else 2
            jobs += [(build_cover_complex, (genus, kk), N) for N in n_list]
        if suite in ("lemma-cohomology", "all") and genus >= 2:
            jobs.append((build_Q_complex, (genus, 2 * genus), 2))
    return max((_complex_cells(b(*a), N) for b, a, N in jobs), default=0)
