"""The benchmark's three workloads.

Each workload draws its inputs from the seed, runs one round of calls into
the program (``hillduffing.cli.main`` in-process for the README commands,
the library functions for the rest), reads back what the round produced,
and checks it against ``reference``, which shares no code with the
program.  A round always attempts the same operations, so the share of
failed operations does not depend on the seed or on how many rounds run.

An operation fails when a scan cell comes back nan, when a call raises
one of the program's errors, or when a check rejects its output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import reference as ref
from hillduffing import beam, cli, criteria, tongues
from hillduffing.errors import BracketNotFound, DomainError, IntegrationFailure

PROGRAM_ERRORS = (BracketNotFound, DomainError, IntegrationFailure)

# the CLI's default classification band, |trace| = 2 +- 1e-4 (README)
BAND = 1e-4
# cells this close to an exact line are left out of the region checks
MARGIN = 0.02
# relative agreement with the reference trace
TRACE_TOL = 1e-6


def _num(x) -> str:
    return repr(float(x))


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One round is ``run_round``; ``collect`` reads its outputs back;
    ``lost`` returns {operation: reason} for the operations whose output is
    missing or nan, and ``check`` for those whose output is wrong."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.errors: dict = {}
        self.on_call = None  # set by a traced run to label spans by call
        self._ref_cache: dict = {}
        self.written: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _call(self, key, fn, *args, **kwargs):
        """Run one program call; a program error becomes that operation's failure."""
        if self.on_call is not None:
            self.on_call(key)
        try:
            return fn(*args, **kwargs)
        except PROGRAM_ERRORS as exc:
            self.errors[key] = f"{type(exc).__name__}: {exc}"
            return None

    def _cli(self, key, *argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._call(key, lambda: cli.main(list(argv)))
        if code not in (0, None):
            self.errors[key] = f"exit {code}: {err.getvalue().strip()}"
        return out.getvalue()

    def reset(self) -> None:
        """Forget the last round, so a call that writes nothing shows."""
        self.errors = {}
        for p in self.written:
            if os.path.exists(p):
                os.remove(p)

    def bytes_written(self) -> int:
        return sum(os.path.getsize(p) for p in self.written if os.path.exists(p))

    def reference(self, plane: str, x: float, y: float) -> float:
        key = (plane, x, y)
        if key not in self._ref_cache:
            fn = ref.gamma_trace if plane == "gamma" else ref.omega_trace
            self._ref_cache[key] = fn(x, y)
        return self._ref_cache[key]

    def lost(self, outputs) -> dict:
        return {}


class Chart(Workload):
    """Scaled-down README stability charts: the gamma plane at 1 worker and
    the omega plane at 2 workers, over the README ranges with delta > 0."""

    name = "chart"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        r = self.rng
        sizes = ((4, 6), (4, 6)) if tiny else ((21, 41), (26, 41))
        self.shape = {"gamma": sizes[0], "omega": sizes[1]}
        self.argv = {
            "gamma": ["scan", "--plane", "gamma",
                      "--x", f"{_num(0.05 + 0.05 * r.random())}:3:{sizes[0][0]}",
                      "--y", f"{_num(-2.0 + 0.05 * r.uniform(-1, 1))}:6:{sizes[0][1]}",
                      "--workers", "1", "--out", self.path("gamma_chart")],
            "omega": ["scan", "--plane", "omega",
                      "--x", f"{_num(0.05 + 0.05 * r.random())}:5:{sizes[1][0]}",
                      "--y", f"{_num(0.05 + 0.1 * r.random())}:7:{sizes[1][1]}",
                      "--workers", "2", "--out", self.path("omega_chart")],
        }
        per_plane = 4 if tiny else 12
        self.sample = {p: sorted(r.choice(nx * ny, per_plane, replace=False).tolist())
                       for p, (nx, ny) in self.shape.items()}
        self.written = [self.path(f"{p}_chart{ext}") for p in self.shape
                        for ext in (".csv", ".meta.json")]

    def warm_up(self):
        self._cli("warm-up", "scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0.5:1:2",
                  "--out", self.path("warm_up"))

    def operations(self):
        return [(p, i) for p, (nx, ny) in self.shape.items() for i in range(nx * ny)]

    def run_round(self):
        for plane, argv in self.argv.items():
            self._cli(plane, *argv)

    def collect(self, _):
        grids = {}
        for plane in self.shape:
            path = self.path(f"{plane}_chart.csv")
            rows = _read_csv(path) if os.path.exists(path) else []
            grids[plane] = [(float(r["x"]), float(r["y"]), float(r["trace"]), r["class"])
                            for r in rows]
        return grids

    def lost(self, grids):
        lost = {}
        for plane, (nx, ny) in self.shape.items():
            cells = grids[plane]
            if len(cells) != nx * ny:
                lost.update({(plane, i): "scan wrote no grid" for i in range(nx * ny)})
            else:
                lost.update({(plane, i): "nan cell" for i, c in enumerate(cells)
                             if math.isnan(c[2])})
        return lost

    def check(self, grids):
        bad = {}
        for plane, (nx, ny) in self.shape.items():
            cells = grids[plane]
            if len(cells) != nx * ny:
                continue
            for i, (x, y, tr, cls) in enumerate(cells):
                if math.isnan(tr):
                    continue
                if plane == "gamma":
                    want = ref.gamma_regions(x, y, MARGIN)
                else:
                    want = "stable" if y < 1.0 - MARGIN else None
                if want is not None and cls != want:
                    bad[(plane, i)] = f"class {cls} where the exact lines give {want}"
            for i in self.sample[plane]:
                x, y, tr, cls = cells[i]
                if math.isnan(tr):
                    continue
                r = self.reference(plane, x, y)
                if not abs(tr - r) <= TRACE_TOL * max(1.0, abs(r)):
                    bad[(plane, i)] = f"trace {tr!r} vs reference {r!r}"
                elif abs(abs(r) - 2.0) > BAND + TRACE_TOL and cls != ref.classify(r, BAND):
                    bad[(plane, i)] = f"class {cls} vs reference {ref.classify(r, BAND)}"
        return bad

    def perturbations(self):
        def flip_region(g):
            for i, (x, y, tr, cls) in enumerate(g["gamma"]):
                want = ref.gamma_regions(x, y, MARGIN)
                if want is not None:
                    g["gamma"][i] = (x, y, tr, "unstable" if want == "stable" else "stable")
                    return

        def flip_low_omega(g):
            i = next(i for i, c in enumerate(g["omega"]) if c[1] < 1.0 - MARGIN)
            x, y, tr, _ = g["omega"][i]
            g["omega"][i] = (x, y, tr, "boundary")

        def shift_trace(g):
            i = self.sample["omega"][0]
            x, y, tr, cls = g["omega"][i]
            g["omega"][i] = (x, y, tr + 1e-5 * max(1.0, abs(tr)), cls)

        def nan_cell(g):
            x, y, _, cls = g["gamma"][0]
            g["gamma"][0] = (x, y, math.nan, "nan")

        return {"gamma-plane exact regions": flip_region, "omega < 1 stable": flip_low_omega,
                "trace vs reference": shift_trace, "nan cell counted failed": nan_cell}


class Sweep(Workload):
    """Tongue geometry along parameter lines: crossing recounts, level-set
    brackets in both planes (one through the CLI), and the (1, 2) beam
    instability interval by bisecting ``mode_stability``."""

    name = "sweep"
    BISECTIONS = 14

    def __init__(self, seed, tiny, workdir):
        # no smaller form: the checks hold the program's defaults to the paper
        super().__init__(seed, workdir)
        r = self.rng
        self.delta1 = 0.8 + 0.4 * float(r.random())
        # (stable, unstable) and (unstable, stable) starts around the interval ends
        self.left = (2.80 + 0.06 * float(r.random()), 3.05 + 0.1 * float(r.random()))
        self.right = (3.25 + 0.1 * float(r.random()), 3.55 + 0.1 * float(r.random()))
        self.bracket_json = self.path("tongue2.json")
        self.written = [self.bracket_json]
        self.pair = beam.ModePair(1, 2)

    def warm_up(self):
        self._call("warm-up", tongues.trace_at, tongues.Plane.OMEGA, 1.0, 1.5, tol=1e-12)

    def operations(self):
        return ([f"recount {w}" for w in ref.PAPER_RECOUNTS]
                + ["gamma 1", "gamma 2", "omega 2", "omega 1", "interval"]
                + [("mode_stability", i) for i in range(2 * (self.BISECTIONS + 2))])

    def _unstable(self, i, delta):
        v = self._call(("mode_stability", i), beam.mode_stability, self.pair, delta)
        return v is not None and v.value == "unstable"

    def _edge(self, first, lo, hi, unstable_hi):
        ends = (self._unstable(first, lo), self._unstable(first + 1, hi))
        for k in range(self.BISECTIONS):
            mid = 0.5 * (lo + hi)
            if self._unstable(first + 2 + k, mid) == unstable_hi:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi), ends

    def run_round(self):
        out = {"recount": {}, "bracket": {}}
        for w in ref.PAPER_RECOUNTS:
            out["recount"][w] = self._call(f"recount {w}", tongues.recount_crossings, w)
        g, o = tongues.Plane.GAMMA, tongues.Plane.OMEGA
        out["bracket"]["gamma 1"] = self._call("gamma 1", tongues.trace_level_bracket,
                                               g, 1, self.delta1, threshold=2.0)
        self._cli("gamma 2", "tongue-bracket", "--plane", "gamma", "--ell", "2",
                  "--delta", "0.2", "--out", self.bracket_json)
        out["bracket"]["omega 2"] = self._call("omega 2", tongues.trace_level_bracket, o, 2, 0.2)
        out["bracket"]["omega 1"] = self._call("omega 1", tongues.trace_level_bracket, o, 1, 50.0)
        n = self.BISECTIONS + 2
        left, left_ends = self._edge(0, *self.left, unstable_hi=True)
        right, right_ends = self._edge(n, *self.right, unstable_hi=False)
        out["interval"] = (left, right, left_ends + right_ends)
        return out

    def collect(self, out):
        out["bracket"] = {k: (v.lower, v.upper) if v is not None else None
                          for k, v in out["bracket"].items()}
        if "gamma 2" not in self.errors and os.path.exists(self.bracket_json):
            with open(self.bracket_json) as fh:
                payload = json.load(fh)
            out["bracket"]["gamma 2"] = (payload["lower"], payload["upper"])
        else:
            out["bracket"]["gamma 2"] = None
        return out

    def lost(self, out):
        return {key: "no bracket" for key, b in out["bracket"].items() if b is None}

    def check(self, out):
        bad = {}
        for w, want in ref.PAPER_RECOUNTS.items():
            if out["recount"][w] is not None and out["recount"][w] != want:
                bad[f"recount {w}"] = f"{out['recount'][w]} crossings, paper table {want}"
        br = out["bracket"]
        d2 = self.delta1 * self.delta1
        checks = {
            "gamma 1": ((1.0 - 1e-4, 1.0 + 1e-4), (1.0 + d2 / 2 - 1e-4, 1.0 + d2 / 2 + 1e-4)),
            "omega 1": ((-math.inf, math.inf), (ref.LARGE_AMPLITUDE_UPPER_EDGE - 0.1,
                                                 ref.LARGE_AMPLITUDE_UPPER_EDGE + 0.1)),
        }
        slack = 5.0 * 0.2**4
        for key, plane in (("gamma 2", "gamma"), ("omega 2", "omega")):
            lo, hi = ref.parabolic_bounds(plane, 2, 0.2)
            checks[key] = ((lo - slack, hi + slack), (lo - slack, hi + slack))
        for key, (lower_ok, upper_ok) in checks.items():
            if br[key] is None:
                continue
            lower, upper = br[key]
            if not (lower_ok[0] <= lower <= lower_ok[1] and upper_ok[0] <= upper <= upper_ok[1]
                    and lower < upper):
                bad[key] = f"bracket ({lower!r}, {upper!r}) outside {lower_ok} / {upper_ok}"
        left, right, ends = out["interval"]
        want = ref.PAPER_BEAM_INTERVAL
        if ends != (False, True, True, False):
            bad["interval"] = f"bisection starts not on both sides of an edge: {ends}"
        elif abs(left - want[0]) > 0.02 or abs(right - want[1]) > 0.02:
            bad["interval"] = f"interval ({left:.4f}, {right:.4f}) vs paper {want}"
        return bad

    def perturbations(self):
        def recount(o):
            o["recount"][4.0] += 1

        def nudge(key, which, by):
            def f(o):
                b = list(o["bracket"][key])
                b[which] += by
                o["bracket"][key] = tuple(b)
            return f

        def interval(o):
            left, right, ends = o["interval"]
            o["interval"] = (left + 0.03, right, ends)

        return {"recount vs paper table": recount,
                "gamma ell=1 exact edge": nudge("gamma 1", 1, 2e-4),
                "gamma ell=2 parabolic bounds": nudge("gamma 2", 0, -0.02),
                "omega ell=2 parabolic bounds": nudge("omega 2", 1, 0.02),
                "omega ell=1 edge near 3": nudge("omega 1", 1, -0.2),
                "(1, 2) interval vs paper": interval}


class BeamStudy(Workload):
    """The beam application: the omega-plane criteria map, the closed-form
    certified delta-set at omega = 4, and two-mode runs inside and outside
    the instability sets of modes (1, 2) and (2, 3)."""

    name = "beam-study"
    CERTIFIED_POINTS = 2999

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        r = self.rng
        nx, ny = (4, 5) if tiny else (25, 40)
        self.shape = (nx, ny)
        self.crit_argv = ["criteria-map", "--plane", "omega",
                          "--x", f"{_num(0.05 + 0.05 * r.random())}:5:{nx}",
                          "--y", f"{_num(0.05 + 0.1 * r.random())}:7:{ny}",
                          "--criteria", "li-zhang,zhukovskii,burdina",
                          "--out", self.path("criteria_chart")]
        self.deltas = (0.0005 + 0.001 * float(r.random())
                       + 0.001 * np.arange(self.CERTIFIED_POINTS))
        # amplitudes at least 0.05 inside or outside the instability sets:
        # (1, 2) is unstable on (2.93, 3.45), (2, 3) from about 4.54 on
        self.runs = [((1, 2), 3.05 + 0.2 * float(r.random()), True),
                     ((1, 2), 2.60 + 0.2 * float(r.random()), False),
                     ((2, 3), 4.70 + 0.2 * float(r.random()), True),
                     ((2, 3), 2.40 + 0.4 * float(r.random()), False)]
        self.sample_seed = int(r.integers(2**31))
        self.samples = 4 if tiny else 12
        self.written = [self.path("criteria_chart.csv"), self.path("criteria_chart.meta.json")]
        self.written += [self.path(f"run{i}.csv") for i in range(len(self.runs))]

    def warm_up(self):
        self._cli("warm-up", "criteria-map", "--plane", "omega", "--x", "0.5:1:2",
                  "--y", "2:3:2", "--out", self.path("warm_up"))

    def operations(self):
        nx, ny = self.shape
        return ([("cell", i) for i in range(nx * ny)]
                + [("certified", i) for i in range(self.CERTIFIED_POINTS)] + ["certified set"]
                + [("run", i) for i in range(len(self.runs))]
                + [("mode_stability", i) for i in range(len(self.runs))])

    def run_round(self):
        self._cli("criteria map", *self.crit_argv)
        certified = []
        for i, d in enumerate(self.deltas):
            v = self._call(("certified", i), criteria.burdina_condition_omega, float(d), 4.0)
            certified.append(v is not None and v.guaranteed_stable)
        runs = []
        for i, ((m, n), delta, _) in enumerate(self.runs):
            text = self._cli(("run", i), "beam", "--m", str(m), "--n", str(n),
                             "--delta", _num(delta), "--out", self.path(f"run{i}.csv"))
            linear = self._call(("mode_stability", i), beam.mode_stability,
                                beam.ModePair(m, n), delta)
            runs.append((text, None if linear is None else linear.value))
        return {"certified": certified, "runs": runs}

    def collect(self, out):
        if not os.path.exists(self.path("criteria_chart.csv")):
            out["cells"] = []
        else:
            out["cells"] = [(float(r["x"]), float(r["y"]),
                             (r["li_zhang"], r["zhukovskii"], r["burdina"]))
                            for r in _read_csv(self.path("criteria_chart.csv"))]
        runs = []
        for i, (text, linear) in enumerate(out["runs"]):
            verdict = drift = None
            for line in text.splitlines():
                if line.startswith("verdict: "):
                    verdict = line.split()[1]
            path = self.path(f"run{i}.csv")
            if ("run", i) not in self.errors and os.path.exists(path):
                energy = np.loadtxt(path, delimiter=",", skiprows=1, usecols=5)
                drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
            runs.append({"verdict": verdict, "linear": linear, "drift": drift})
        out["runs"] = runs
        return out

    def _certified_runs(self, flags):
        runs, start = [], None
        for d, ok in zip(self.deltas, flags):
            if ok and start is None:
                start = d
            if not ok and start is not None:
                runs.append((start, prev))
                start = None
            prev = d
        if start is not None:
            runs.append((start, self.deltas[-1]))
        return runs

    def lost(self, out):
        nx, ny = self.shape
        lost = {}
        if len(out["cells"]) != nx * ny:
            lost.update({("cell", i): "criteria map not written" for i in range(nx * ny)})
        for i, run in enumerate(out["runs"]):
            if run["verdict"] is None or run["drift"] is None:
                lost[("run", i)] = "no verdict or no trajectory"
        return lost

    def check(self, out):
        bad = {}
        nx, ny = self.shape
        if len(out["cells"]) == nx * ny:
            certified = [i for i, c in enumerate(out["cells"]) if "S" in c[2]]
            rng = np.random.default_rng(self.sample_seed)
            picked = rng.choice(certified, min(self.samples, len(certified)), replace=False)
            for i in sorted(picked.tolist()):
                x, y, _ = out["cells"][i]
                r = self.reference("omega", x, y)
                if abs(r) > 2.0 + TRACE_TOL:
                    bad[("cell", i)] = f"certified stable but reference trace {r!r}"
        got = self._certified_runs(out["certified"])
        want = ref.PAPER_CERTIFIED_OMEGA4
        if len(got) != len(want) or any(abs(a - b) > 0.005 for g, w in zip(got, want)
                                         for a, b in zip(g, w)):
            bad["certified set"] = f"{[(round(a, 4), round(b, 4)) for a, b in got]} vs paper {want}"
        for i, (run, ((m, n), delta, inside)) in enumerate(zip(out["runs"], self.runs)):
            if run["linear"] is None:
                continue
            r = ref.classify(self.reference("omega", delta, (n / m) ** 2), BAND)
            transfer = run["verdict"] == "energy_transfer"
            if run["linear"] != r or r != ("unstable" if inside else "stable"):
                bad[("mode_stability", i)] = (f"({m}, {n}) at {delta:.4f}: mode_stability "
                                              f"{run['linear']}, reference {r}")
            if run["verdict"] is None or run["drift"] is None:
                continue
            if transfer != (run["linear"] == "unstable"):
                bad[("run", i)] = f"verdict {run['verdict']} vs linear {run['linear']}"
            elif run["drift"] > 1e-6:
                bad[("run", i)] = f"relative energy drift {run['drift']}"
        return bad

    def perturbations(self):
        def widen_certified(o):
            k = int(np.searchsorted(self.deltas, 1.17))
            o["certified"][k:k + 20] = [True] * 20

        def unstable_cell(o):
            rng = np.random.default_rng(self.sample_seed)
            certified = [i for i, c in enumerate(o["cells"]) if "S" in c[2]]
            i = int(rng.choice(certified, min(self.samples, len(certified)), replace=False)[0])
            o["cells"][i] = (3.2, 4.0, o["cells"][i][2])

        def flip_verdict(o):
            o["runs"][0]["verdict"] = "no_transfer_observed"

        def flip_linear(o):
            o["runs"][1]["linear"] = "unstable"

        def drift(o):
            o["runs"][2]["drift"] = 1e-5

        return {"certified set vs paper": widen_certified,
                "S cell vs reference": unstable_cell,
                "transfer verdict vs linear verdict": flip_verdict,
                "mode_stability vs reference": flip_linear,
                "energy drift": drift}


WORKLOADS = {w.name: w for w in (Chart, Sweep, BeamStudy)}
