"""The four benchmark workloads, generated from a seed out of the
acceptance suite's standard grid.

Standard grid: d in {1,3,4,5}, every character mod d, r in {3,4,5,7} with
gcd(r, d) = 1 (28 contexts), j = 1, w components from {1,2,3,4}.

Every workload enumerates a fixed pool of operations in canonical key
order, and the seed shuffles it into the run's schedule, balanced so that
every prefix of the schedule has nearly the same mix of costs.  A run issues the
schedule in order, cycling if it runs out.  Each operation returns its
output; `verdict` checks it against the paper's expectations and
`output_bytes` gives the canonical bytes whose sha256 is compared with the
reference digest recorded from the seed commit (see record_reference.py).

Only bernsym's public API is called, through the module handles in `lib`,
so that a traced run sees every call through its wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

GRID_D = (1, 3, 4, 5)
GRID_R = (3, 4, 5, 7)
W_COMPONENTS = (1, 2, 3, 4)
THEOREM_IDS = tuple(range(1, 12))
# theorems whose sides are equal as stated; the others hold only after
# dividing each side by its weight, and within orbits
AS_STATED_THEOREMS = (1, 4, 10, 11)


def digest(data: bytes) -> str:
    """The reference digest: the first 16 hex digits of the sha256."""
    return hashlib.sha256(data).hexdigest()[:16]


def canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _label(exponents) -> str:
    return ",".join(map(str, exponents)) or "-"


def grid_contexts(lib) -> list[tuple[int, tuple[int, ...], int]]:
    """The 28 (d, character label, r) contexts of the standard grid."""
    out = []
    for d in GRID_D:
        for chi in lib.dirichlet.enumerate_characters(d):
            for r in GRID_R:
                if math.gcd(r, d) == 1:
                    out.append((d, tuple(chi.exponents), r))
    return sorted(out)


def _conditions_hold(lib, qt, w, r) -> bool:
    """The quotient type's divisibility preconditions, as the acceptance suite filters them."""
    return not any(lib.quotients.mono_val(mono, w) % r == 0 for mono in qt.conditions())


def _proportional(ops: list[tuple], stratum, rng: random.Random) -> list[tuple]:
    """Shuffle ops so that every prefix holds each stratum's ops in
    proportion to the stratum's size: each stratum is shuffled, and its
    ops are spaced evenly along the sequence from a random offset."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(stratum(op), []).append(op)
    keyed = []
    for key in sorted(groups):
        group = groups[key]
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((i + offset) / len(group), rng.random(), op) for i, op in enumerate(group)]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


def _round_robin(ops: list[tuple], context, rng: random.Random, stratum=None) -> list[tuple]:
    """Shuffle each context's ops and the order of the contexts, then take
    one op from each context in turn, so that every prefix of the schedule
    spreads its work, and its cache fills, evenly over the contexts.  With
    `stratum`, each context's ops are spread in proportion over its strata
    of cost as well."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(context(op), []).append(op)
    lanes = [groups[k] for k in sorted(groups)]
    rng.shuffle(lanes)
    lanes = [_proportional(lane, stratum or (lambda op: 0), rng) for lane in lanes]
    return [lane[i] for i in range(max(map(len, lanes))) for lane in lanes if i < len(lane)]


class _Contexts:
    """Per-run state: one (character, twist, EvalContext) per grid context,
    built on first use inside the operation that needs it."""

    def __init__(self, lib):
        self.lib = lib
        self._made = {}

    def get(self, d, label, r):
        key = (d, label, r)
        made = self._made.get(key)
        if made is None:
            chi = self.lib.dirichlet.DirichletCharacter(d, label)
            twist = self.lib.bernoulli.TwistSpec(r, 1)
            made = self._made[key] = (chi, twist, self.lib.quotients.EvalContext(chi, twist))
        return made


class Workload:
    name = ""
    # a timed run stops only after a whole number of rounds, one op per
    # (d, chi, r) context, so that every context has the same share
    round = 28

    def pool(self, lib) -> list[tuple]:
        """Every operation the workload can draw, in canonical order."""
        raise NotImplementedError

    def schedule(self, seed: int, lib) -> list[tuple]:
        """The pool in seeded order, round robin over the (d, chi, r) contexts
        and in proportion over the cost strata within each."""
        return _round_robin(self.pool(lib), lambda op: op[2:], random.Random(f"{self.name}:{seed}"),
                            self.stratum)

    @staticmethod
    def stratum(op):
        """The class of an op's cost within its context."""
        return 0

    def prepare(self, schedule, workdir: Path) -> None:
        """Write any input files the operations read."""

    def new_state(self, lib, workdir: Path):
        return _Contexts(lib)

    def run(self, op, state):
        raise NotImplementedError

    def verdict(self, op, output, lib) -> str | None:
        """None when the output meets the paper's expectation, else why not."""
        raise NotImplementedError

    def output_bytes(self, output) -> bytes:
        raise NotImplementedError

    @staticmethod
    def key(op) -> str:
        return "/".join(_label(x) if isinstance(x, tuple) else str(x) for x in op)

    def check(self, op, output, lib, expected: str | None) -> str | None:
        """The correctness gate for one operation: verdict, then digest."""
        reason = self.verdict(op, output, lib)
        if reason:
            return reason
        if expected is None:
            return f"no reference digest for {self.key(op)}"
        got = digest(self.output_bytes(output))
        if got != expected:
            return f"output digest {got} != reference {expected}"
        return None


class GridAudit(Workload):
    """One op: `bernsym audit` on a single-cell grid file, in process."""

    name = "grid_audit"
    # rounds of 11 cells, one per theorem: a run stops at 110 ops
    round = 11

    def pool(self, lib):
        return [(t, d, label, r) for t in THEOREM_IDS for d, label, r in grid_contexts(lib)]

    def schedule(self, seed, lib):
        # Rounds of 11 cells, one per theorem, so any prefix of the schedule
        # has the same theorem mix.  Each theorem alternates between the
        # r in {3,4} and the r in {5,7} contexts, the two halves whose cost
        # differs most (the divisibility conditions skip more w at small r).
        rng = random.Random(f"{self.name}:{seed}")
        contexts = grid_contexts(lib)
        per_theorem = {}
        for t in THEOREM_IDS:
            small = [c for c in contexts if c[2] in (3, 4)]
            large = [c for c in contexts if c[2] in (5, 7)]
            rng.shuffle(small)
            rng.shuffle(large)
            first, second = (small, large) if t % 2 else (large, small)
            per_theorem[t] = [c for pair in zip(first, second) for c in pair]
        return [(t, *per_theorem[t][k]) for k in range(len(contexts)) for t in THEOREM_IDS]

    @staticmethod
    def grid_path(workdir: Path, op) -> Path:
        return workdir / f"cell-{GridAudit.key(op).replace('/', '_')}.grid"

    def prepare(self, schedule, workdir):
        for op in schedule:
            t, d, label, r = op
            self.grid_path(workdir, op).write_text(
                f"theorems = {t}\nd = {d}\nchars = explicit\n"
                f"char_labels = {d}:{','.join(map(str, label))}\nr = {r}\nj = 1\n"
                f"w_components = {','.join(map(str, W_COMPONENTS))}\nn_max = 6\n"
                "modes = as-stated,normalized\n",
                encoding="utf-8",
            )

    def new_state(self, lib, workdir):
        return (lib, workdir)

    def run(self, op, state):
        lib, workdir = state
        out, err = io.StringIO(), io.StringIO()
        code = lib.cli.main(["audit", "--grid-file", str(self.grid_path(workdir, op))],
                            out=out, err=err)
        return code, out.getvalue()

    def verdict(self, op, output, lib):
        theorem = op[0]
        code, text = output
        try:
            summary = {(row["theorem"], row["mode"]): row for row in json.loads(text)["summary"]}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable audit output: {exc}"
        symmetric = theorem in AS_STATED_THEOREMS
        if code != (0 if symmetric else 1):
            return f"exit code {code}"
        normalized = summary.get((theorem, "normalized"))
        as_stated = summary.get((theorem, "as-stated"))
        if normalized is None or as_stated is None:
            return "missing summary rows"
        if normalized["fail"] or not normalized["pass"]:
            return "normalized mode failed"
        if symmetric:
            if as_stated["fail"] or not as_stated["pass"]:
                return "as-stated mode failed on a symmetric theorem"
            return None
        witness = as_stated.get("first_witness")
        if not as_stated["fail"] or witness is None:
            return "as-stated mode passed on a theorem that holds only normalized"
        orbit_of = {side: i for i, orbit in enumerate(lib.identities.THEOREMS[theorem].orbits())
                    for side in orbit}
        if orbit_of[witness["side_a"]] == orbit_of[witness["side_b"]]:
            return "as-stated witness lies within one orbit"
        return None

    def output_bytes(self, output):
        return output[1].encode()


class ClosedFormSweep(Workload):
    """One op: criterion 5 for one (quotient type, w multiset) in one context."""

    name = "closed_form_sweep"
    ORDER = 12
    Y = (Fraction(1, 2), Fraction(2), Fraction(3, 5))

    def pool(self, lib):
        ops = []
        for d, label, r in grid_contexts(lib):
            for name, qt in sorted(lib.quotients.QUOTIENT_TYPES.items()):
                for ms in combinations_with_replacement(W_COMPONENTS, qt.arity):
                    if _conditions_hold(lib, qt, ms, r):
                        ops.append((name, ms, d, label, r))
        return ops

    @staticmethod
    def stratum(op):
        # the cost grows with the number of orderings: 1, 3 or 6 (every op
        # in the slowest tenth has 3 or 6)
        return len(set(permutations(op[1])))

    def run(self, op, state):
        name, ms, d, label, r = op
        lib = state.lib
        chi, twist, ctx = state.get(d, label, r)
        qt = lib.quotients.QUOTIENT_TYPES[name]
        y = self.Y[: max(1, qt.y_count)] if qt.y_count else ()
        series = [lib.quotients.closed_form_series(qt, w, y, chi, twist, self.ORDER, ctx)
                  for w in sorted(set(permutations(ms)))]
        invariant = all(s == series[0] for s in series[1:])
        coeffs = [series[0].egf_coefficient(n).to_json() for n in range(self.ORDER + 1)]
        return invariant, coeffs

    def verdict(self, op, output, lib):
        return None if output[0] is True else "closed form changed under a permutation of w"

    def output_bytes(self, output):
        return canonical_json(output[1])


class ConsistencySample(Workload):
    """One op: criterion 6 for one (quotient type, ordered w) in one context."""

    name = "consistency_sample"
    N_MAX = 8

    def pool(self, lib):
        ops = []
        for d, label, r in grid_contexts(lib):
            for name, qt in sorted(lib.quotients.QUOTIENT_TYPES.items()):
                for w in product(W_COMPONENTS, repeat=qt.arity):
                    if _conditions_hold(lib, qt, w, r):
                        ops.append((name, w, d, label, r))
        return ops

    @staticmethod
    def stratum(op):
        # the quotient type: four of the 13 give three quarters of the slowest tenth
        return op[0]

    def run(self, op, state):
        name, w, d, label, r = op
        lib = state.lib
        chi, twist, ctx = state.get(d, label, r)
        qt = lib.quotients.QUOTIENT_TYPES[name]
        y = tuple(Fraction(i + 1, 2) for i in range(qt.y_count))
        return lib.quotients.consistency_check(qt, w, y, chi, twist, self.N_MAX, ctx).to_json()

    def verdict(self, op, output, lib):
        return None if output.get("pass") is True else "expansion differs from weighted closed form"

    def output_bytes(self, output):
        return canonical_json(output)


class PadicMoments(Workload):
    """One op: criterion 9's moment convergence check at M = 40."""

    name = "padic_moments"
    M = 40
    # level K walks d*p^K residues; 1..4 is the acceptance suite's range
    LEVELS = (1, 2, 3, 4)
    # whole rounds of the pool, so that every op has the same share of a
    # run: their costs differ by more than 20x
    round = 18

    def pool(self, lib):
        ops = []
        for p in (5, 7):
            for r in (3, 4):
                for d in (1, 4):
                    if math.gcd(r, p * d) != 1:
                        continue
                    for chi in lib.dirichlet.enumerate_characters(d):
                        if r % chi.order == 0:
                            ops.extend((p, r, d, tuple(chi.exponents), n) for n in (1, 2, 3))
        return sorted(ops)

    def schedule(self, seed, lib):
        # the pool has 18 ops; a run cycles through it many times, so whole
        # shuffled rounds keep the mix identical across seeds
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(16):
            round_ = self.pool(lib)
            rng.shuffle(round_)
            out.extend(round_)
        return out

    def new_state(self, lib, workdir):
        return lib

    def run(self, op, lib):
        p, r, d, label, n = op
        chi = lib.dirichlet.DirichletCharacter(d, label)
        report = lib.padic.convergence_check(n, chi, lib.bernoulli.TwistSpec(r, 1),
                                             list(self.LEVELS), lib.padic.PadicContext(p, self.M, r))
        return report.to_json()

    def verdict(self, op, output, lib):
        vals = [row["valuation"] for row in output["table"]]
        exact = [row["exact"] for row in output["table"]]
        if output.get("pass") is not True:
            return "convergence check failed"
        if vals != sorted(vals) or not (all(exact) or vals[-1] > vals[0]):
            return f"valuations {vals} do not grow"
        return None

    def output_bytes(self, output):
        return canonical_json(output)


WORKLOADS = {w.name: w for w in (GridAudit(), ClosedFormSweep(), ConsistencySample(), PadicMoments())}
