"""The four workloads: seeded inputs, one request at a time, and an oracle.

Each workload builds a fixed request list from its seed; one pass runs the
list once.  `run(request)` is the timed call into eccspec; `check(request,
output)` is the benchmark's own oracle, run outside the timed span, and
returns None or the reason the output is wrong.  Sizes are fixed per slot and
the seed varies structure, labels and order, so every seed asks for about the
same amount of work.
"""

import contextlib
import io
import json
import os
import random
import selectors
import subprocess
import sys

import numpy as np

import graphgen as gg

# Prefix of an oracle reason that names the one known wrong answer of the
# program (ROADMAP item 3a): the closed route of `spectrum --parts` splits one
# eigenvalue over several lines.  Such a request is reported by name, counted
# in fail_frac and in the traced run's cli.split_groups, but it does not make
# the run incorrect; any other deviation does.
KNOWN_DEFECT = "known defect (ROADMAP 3a)"


class Request:
    __slots__ = ("label", "payload")

    def __init__(self, label, payload):
        self.label = label
        self.payload = payload


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


class InProcess:
    """Shared set-up for the workloads that call the library directly."""

    in_process = True

    def setup(self):
        import eccspec
        self.eccspec = eccspec


# --------------------------------------------------------------- verify_sweep

class VerifySweep(InProcess):
    """The paper's harness: one request is one verify_* call at one order."""

    name = "verify_sweep"

    def __init__(self, seed, tiny):
        top = (6, 6, 8, 3) if tiny else (16, 14, 20, 6)
        reqs = [("verify_closed_forms", n) for n in range(4, top[0] + 1)]
        reqs += [("verify_bounds_and_extremals", n) for n in range(4, top[1] + 1)]
        reqs += [("verify_lemma2", n) for n in range(4, top[2] + 1)]
        reqs += [("verify_equienergetic", top[3])]
        _rng(self.name, seed).shuffle(reqs)
        self.requests = [Request(f"{fn}({n})", (fn, n)) for fn, n in reqs]

    def warmup(self):
        self.eccspec.verify_closed_forms(5)

    def run(self, req):
        fn, n = req.payload
        return getattr(self.eccspec, fn)(n).as_dict()

    def check(self, req, report):
        fn, n = req.payload
        expected = _expected_cases(fn, n)
        if not report["pass"]:
            return f"report failed: {report['violations'][:3]}"
        if report["cases"] != expected:
            return f"cases {report['cases']} != expected {expected}"
        return None


def _expected_cases(fn, n):
    # partitions with at least two classes: p(n) - 1; with every class >= 2
    # also drop the one-class partition [n]
    if fn in ("verify_closed_forms", "verify_bounds_and_extremals"):
        return gg.partition_count(n) - 1
    if fn == "verify_lemma2":
        return gg.partition_count(n, min_part=2) - 1
    # per order k: the k-1 partners, then the specs of 4k with every class >= 2
    # and at least two classes, sampled down to 400 per order
    return sum((k - 1) + min(gg.partition_count(4 * k, min_part=2) - 1, 400)
               for k in range(2, n + 1))


# ------------------------------------------------------------- spectrum_dense

class SpectrumDense(InProcess):
    """Few mid-size dense matrices, so the eigensolver kernel dominates."""

    name = "spectrum_dense"

    def __init__(self, seed, tiny):
        rng = _rng(self.name, seed)
        orders = (8, 12) if tiny else (24, 32, 40, 48, 56, 64, 72)
        reqs = []
        for n in orders:
            p = rng.uniform(0.3, 0.5)
            edges = gg.relabel(rng, n, gg.gnp_connected(rng, n, p))
            reqs.append(Request(f"gnp(n={n},p={p:.3f})", ("g6", gg.graph6(n, edges), n, edges)))
            # three large classes and n/6 singletons keep the solver's work
            # nearly the same for every seed; the class sizes vary
            parts = gg.mixed_partition(rng, n, 3, n // 6)
            spec_n, spec_edges = gg.multipartite_edges(parts)
            reqs.append(Request(f"K_{{{','.join(map(str, parts))}}}",
                                ("parts", parts, spec_n, spec_edges)))
            k = n // 4
            prod_n, prod_edges = gg.product_edges(k)
            reqs.append(Request(f"K_{{{k},{k}}} x K_2", ("product", k, prod_n, prod_edges)))
        rng.shuffle(reqs)
        self.requests = reqs
        self._expected = {}

    def warmup(self):
        self.run(min(self.requests, key=lambda r: r.payload[2]))

    def run(self, req):
        E = self.eccspec
        kind, arg = req.payload[:2]
        if kind == "g6":
            g = E.parse_graph6(arg)
        elif kind == "parts":
            g = E.build_multipartite(arg)
        else:
            g = E.strong_product(E.build_multipartite([arg, arg]), E.complete(2))
        spectrum = E.matrix_spectrum(E.eccentricity_matrix(g).matrix)
        return spectrum.eigenvalues, E.energy(spectrum)

    def check(self, req, output):
        if req not in self._expected:
            _, _, n, edges = req.payload
            m = gg.eccentricity_matrix(n, edges)
            self._expected[req] = (gg.eigenvalues(m), float(np.linalg.norm(m)))
        expected, norm = self._expected[req]
        eigs, energy = output
        if len(eigs) != len(expected):
            return f"{len(eigs)} eigenvalues, expected {len(expected)}"
        dev = float(np.max(np.abs(np.asarray(eigs) - expected)))
        if dev > 1e-10 * norm:
            return f"eigenvalues off by {dev:.3g} > 1e-10*|M| = {1e-10 * norm:.3g}"
        if abs(energy - float(np.abs(expected).sum())) > 1e-10 * norm * len(expected):
            return f"energy {energy!r} != {float(np.abs(expected).sum())!r}"
        return None


# --------------------------------------------------------------- eccmx_sparse

class EccmxSparse(InProcess):
    """Sparse long-diameter graphs: all-pairs distances dominate, no eigensolve."""

    name = "eccmx_sparse"

    # (family, order, diameter or grid shape); cost grows as diameter * n^3.
    # The orders follow a ladder of about 8% steps in cost (about 60 to
    # 350 ms on a shared 2-vCPU Xeon), each family spread over it, so that
    # the latency percentiles fall inside a dense run of similar requests,
    # not in the gap between two of them, where noise would flip them from
    # one request to the next.
    SLOTS = (
        ("path", 84, None), ("cycle", 102, None), ("tree", 149, 18),
        ("grid", 143, (11, 13)), ("chords", 155, 18), ("path", 93, None),
        ("cycle", 112, None), ("tree", 164, 19), ("grid", 156, (12, 13)),
        ("chords", 171, 20), ("path", 102, None), ("cycle", 124, None),
        ("tree", 181, 21), ("grid", 168, (12, 14)), ("chords", 188, 22),
        ("path", 112, None), ("cycle", 136, None), ("tree", 199, 23),
        ("grid", 195, (13, 15)), ("chords", 207, 24), ("path", 124, None),
        ("cycle", 150, None), ("tree", 219, 26), ("grid", 210, (14, 15)),
        ("chords", 228, 27),
    )
    TINY_SLOTS = (("path", 12, None), ("tree", 20, 6), ("grid", 12, (3, 4)), ("chords", 24, 8))

    def __init__(self, seed, tiny):
        rng = _rng(self.name, seed)
        reqs = []
        for family, n, shape in self.TINY_SLOTS if tiny else self.SLOTS:
            if family == "path":
                edges = gg.path_edges(n)
            elif family == "cycle":
                edges = gg.cycle_edges(n)
            elif family == "grid":
                edges = gg.grid_edges(*shape)
            else:
                edges = gg.tree_with_diameter(rng, n, shape)
                if family == "chords":
                    edges = gg.add_chords(rng, n, edges, rng.randint(3, 6), shape)
            edges = gg.relabel(rng, n, edges)
            label = f"{family}(n={n}" + (f",{shape}" if shape else "") + ")"
            reqs.append(Request(label, (gg.edge_list_text(n, edges), n, edges)))
        rng.shuffle(reqs)
        self.requests = reqs
        self._expected = {}

    def warmup(self):
        self.run(min(self.requests, key=lambda r: r.payload[1]))

    def run(self, req):
        E = self.eccspec
        return E.eccentricity_matrix(E.parse_edge_list(req.payload[0])).matrix

    def check(self, req, matrix):
        if req not in self._expected:
            _, n, edges = req.payload
            self._expected[req] = gg.digest(gg.eccentricity_matrix(n, edges))
        if gg.digest(matrix) != self._expected[req]:
            return "eccentricity matrix differs from the BFS oracle"
        return None


# ------------------------------------------------------------------ cli_cold

class CliCold:
    """Fresh `python -m eccspec.cli` processes, one at a time."""

    name = "cli_cold"
    in_process = False

    def __init__(self, seed, tiny, root, out_dir):
        rng = _rng(self.name, seed)
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        counts = dict(energy=3, spectrum=6, g6=3, eccmx=3, bounds=2, verify=1, equi=1, gen=2)
        if tiny:
            counts = {k: 1 for k in counts}
        argvs = []
        for _ in range(counts["energy"]):
            parts = gg.random_partition(rng, rng.randint(6, 14))
            argvs.append((["energy", "--parts", _csv(parts)], ("energy", parts)))
        mixed = {n: [p for p in gg.all_partitions(n) if p[0] >= 2 and p[-1] == 1]
                 for n in range(5, 15)}
        for _ in range(counts["spectrum"]):
            # every mixed spec of the order is equally likely, including those
            # with two or more large classes
            parts = rng.choice(mixed[rng.randint(5, 14)])
            argvs.append((["spectrum", "--parts", _csv(parts)], ("closed", parts)))
        for _ in range(counts["g6"]):
            n = rng.randint(6, 12)
            edges = gg.gnp_connected(rng, n, 0.5)
            argvs.append((["spectrum", "--g6", gg.graph6(n, edges), "--numeric"],
                          ("numeric", n, edges)))
        for i in range(counts["eccmx"]):
            n = rng.randint(10, 30)
            edges = gg.relabel(rng, n, gg.tree_with_diameter(rng, n, rng.randint(3, n // 2))
                               if i % 2 == 0 else gg.cycle_edges(n))
            path = os.path.join(out_dir, f"cli_{seed}_{i}.txt")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(gg.edge_list_text(n, edges))
            argvs.append((["eccmx", "--edges", path], ("eccmx", n, edges)))
        for _ in range(counts["bounds"]):
            argvs.append((["bounds", "--n", str(rng.randint(4, 40))], ("any",)))
        for _ in range(counts["verify"]):
            argvs.append((["verify", "--theorem", "1", "--n", "8"], ("verify", 8)))
        for _ in range(counts["equi"]):
            argvs.append((["equienergetic", "--n", "3"], ("equi",)))
        for _ in range(counts["gen"]):
            parts = gg.random_partition(rng, rng.randint(4, 20))
            argvs.append((["gen", "--parts", _csv(parts), "--out", "graph6"], ("gen", parts)))
        rng.shuffle(argvs)
        self.requests = [Request(" ".join(a if "/" not in a else os.path.basename(a)
                                          for a in argv), (argv, expect))
                         for argv, expect in argvs]
        self._first_stdout = {}
        self._numeric_groups = {}
        self.child_maxrss_kb = []

    def setup(self):
        pass

    def warmup(self):
        self.invoke(["bounds", "--n", "4"])

    def invoke(self, argv):
        """One cold CLI process: (exit code, stdout, stderr, peak RSS in KiB)."""
        proc = subprocess.Popen([sys.executable, "-m", "eccspec.cli", *argv], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = _drain(proc)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # wait4 rather than wait: it also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss

    def run(self, req):
        code, out, err, maxrss = self.invoke(req.payload[0])
        self.child_maxrss_kb.append(maxrss)
        return code, out, err

    def run_in_process(self, req, cli):
        """The same argv through `eccspec.cli.main` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.payload[0]))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, req, output):
        code, out, err = output
        argv, expect = req.payload
        if code != 0:
            return f"exit code {code}, expected 0: {err.decode(errors='replace').strip()[:200]}"
        key = tuple(argv)
        first = self._first_stdout.setdefault(key, out)
        if out != first:
            return "stdout differs between two invocations of the same argv"
        text = out.decode()
        kind = expect[0]
        if kind == "closed":
            if key not in self._numeric_groups:
                n_code, n_out, _, _ = self.invoke(argv + ["--numeric"])
                self._numeric_groups[key] = _groups(n_out.decode()) if n_code == 0 else None
            numeric = self._numeric_groups[key]
            closed = _groups(text)
            if numeric is None or [m for _, m in closed] != [m for _, m in numeric]:
                reason = (f"closed-route multiplicities {[m for _, m in closed]} != "
                          f"--numeric {None if numeric is None else [m for _, m in numeric]}")
                if numeric is not None and _is_split_group(expect[1], closed, numeric):
                    return f"{KNOWN_DEFECT}: {reason}"
                return reason
        elif kind == "energy":
            n, edges = gg.multipartite_edges(expect[1])
            want = float(np.abs(gg.eigenvalues(gg.eccentricity_matrix(n, edges))).sum())
            if abs(float(text) - want) > 1e-9 * max(1.0, want):
                return f"energy {text.strip()} != {want!r}"
        elif kind == "numeric":
            _, n, edges = expect
            m = gg.eccentricity_matrix(n, edges)
            got = np.array(sorted((v for v, mult in _groups(text) for _ in range(mult)),
                                  reverse=True))
            want = gg.eigenvalues(m)
            if len(got) != n or np.max(np.abs(got - want)) > 1e-9 * max(1.0, np.linalg.norm(m)):
                return "numeric spectrum differs from LAPACK"
        elif kind == "eccmx":
            _, n, edges = expect
            got = np.array([[int(x) for x in line.split()] for line in text.splitlines()])
            if gg.digest(got) != gg.digest(gg.eccentricity_matrix(n, edges)):
                return "eccentricity matrix differs from the BFS oracle"
        elif kind == "verify":
            report = json.loads(text)
            if not report["pass"] or report["cases"] != gg.partition_count(expect[1]) - 1:
                return f"verify report pass={report['pass']} cases={report['cases']}"
        elif kind == "equi":
            report = json.loads(text)
            if not report["pass"] or report["product_energy"] != report["partner_energy"]:
                return "equienergetic pair check failed"
        elif kind == "gen":
            n, edges = gg.multipartite_edges(expect[1])
            if text.strip() != gg.graph6(n, edges):
                return "graph6 output differs from the benchmark's encoder"
        return None

    def recheck(self):
        """Invoke every argv once more, untimed, so that stdout is compared
        across two invocations even when the run fitted only one pass."""
        failures = []
        for req in self.requests:
            reason = self.check(req, self.invoke(req.payload[0])[:3])
            if reason:
                failures.append((req.label, reason))
        return failures


def _csv(parts):
    return ",".join(str(x) for x in parts)


def _is_split_group(parts, closed, numeric):
    """True when the closed route shows exactly the defect of ROADMAP 3a.

    The spec has two or more classes of size >= 2 plus singletons, and the
    closed route prints one eigenvalue on several adjacent lines whose sum of
    multiplicities, and nothing else, differs from the numeric route.
    """
    if sum(1 for x in parts if x >= 2) < 2 or min(parts) != 1:
        return False
    merged = []
    for value, mult in closed:
        if merged and _close(merged[-1][0], value):
            merged[-1][1] += mult
        else:
            merged.append([value, mult])
    return len(merged) == len(numeric) and all(
        _close(v, w) and m == k for (v, m), (w, k) in zip(merged, numeric))


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _groups(text):
    """(value, multiplicity) lines of `eccspec spectrum` text output."""
    out = []
    for line in text.splitlines():
        value, mult = line.split()
        out.append((float(value), int(mult)))
    return out


def _drain(proc):
    """Read a child's stdout and stderr to EOF without blocking on either."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


WORKLOADS = {w.name: w for w in (VerifySweep, SpectrumDense, EccmxSparse, CliCold)}
