"""Command-line interface.

Subcommands map one-to-one onto library modules: ``spectrum``, ``evolve``,
``design`` (pst / bound / pgt), ``optimize``, ``glue`` and ``sequences``.
Every command line that argparse accepts writes a run manifest (JSON)
recording the command, resolved inputs, output files, seed, wall time and any
error, so results can be reproduced byte-for-byte; one it rejects exits 2
first.  The output files are a successful run's ``--out-csv`` and ``--out``,
in that order; a failed run lists none, and its error names paths as given.

Every JSON file, ``--out`` and the manifest, goes through
:func:`errors.write_json`: the whole text is built first, then written in
place and the old tail trimmed.  That is not atomic, but a payload that fails
to encode leaves the old file, and a rerun skips the flush that ext4's
``auto_da_alloc`` starts when ``open(path, "w")`` truncates a file with data
(a median 73-103 us against 22-31 us per 1.4 KB rewrite).  The ``evolve``
trace and ``optimize --out-csv`` are atomic: they replace their target only
when the run succeeds, and ``optimize --out`` is written before the CSV
replaces its target, so a failure of either leaves the old CSV.

All calls in one process share one parser: :func:`build_parser` builds it on
the first :func:`main` call, not at import, and returns the same read-only
object after that, so a caller that runs ``main`` many times in-process pays
for the parser once.

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 infeasible design.
They are the error types' own (``QstcError.exit_code``), so a library caller
sees the same types that the CLI maps; an unwritable output (``OSError``)
exits 2 and any other exception 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import shutil
import sys
import time

from .errors import (QstcError, UnsupportedInputError, ValidationError, load_json, read_value,
                     write_json)


def _apply_threads(threads):
    """Cap BLAS worker threads, overriding any thread variable already set."""
    if threads is None:
        threads = os.environ.get("QSTC_THREADS")
    if threads is None:
        return None
    try:
        threads = int(threads)
    except ValueError as exc:
        raise ValidationError(f"thread count must be an integer, got {threads!r}") from exc
    if threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {threads}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


# ---------------------------------------------------------------------------
# subcommand implementations; each writes its own files and prints, optimize
# returns the "seed" of its problems, and main records the outputs
# ---------------------------------------------------------------------------


def _cmd_spectrum(args):
    from . import chains, spectral

    spec = chains.load_spec(args.spec_file)
    lam = spectral.eigenvalues(chains.build_hamiltonian(spec))
    tags = exact_payload = None
    if args.exact:
        from . import exact

        if any(c != 1.0 for c in spec.t + spec.w + spec.g):
            raise UnsupportedInputError("--exact needs a homogeneous unit-coupling chain")
        exact_payload = exact.char_poly_report(spec.k).to_dict()
        tags = exact.sequence_tags(spec.k)
    payload = {
        "N": spec.n,
        "k": spec.k,
        "spectrum": spectral.spectrum_to_dict(lam, tags),
    }
    if args.verify_lemmas:
        report = spectral.verify_lemmas(spec)
        payload["lemmas"] = dict(dataclasses.asdict(report), violations={
            k: str(v) for k, v in report.violations.items()})
    if args.exact:
        payload["exact"] = exact_payload
    if args.out:
        write_json(payload, args.out)
    print(f"N={spec.n}  eigenvalues in [{lam[0]:.6g}, {lam[-1]:.6g}]  "
          f"null multiplicity {payload['spectrum']['null_multiplicity']}")
    if "lemmas" in payload:
        lem = payload["lemmas"]
        print("lemmas:", ", ".join(f"{k}={lem[k]}" for k in ("lemma1", "lemma2", "lemma3", "lemma4")))
    if "exact" in payload:
        ex = payload["exact"]
        print(f"exact: max factor degree {ex['max_degree']}  sequence {ex['sequence']}")


@contextlib.contextmanager
def _replaced_on_success(path):
    """A text file that replaces the file at ``path`` only if the block completes.

    It is written beside its target (through any symlink) and moved into
    place by ``os.replace``, so a run that fails leaves ``path`` as it was.
    It takes the mode of the file it replaces, or, for a new file, 0o666
    less the umask, as ``open`` creates one.  A target that exists but is no
    regular file, such as /dev/stdout, is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(target)
    partial = os.path.join(head, f".{tail}.{os.getpid()}.part")
    try:
        fh = open(partial, "w", encoding="utf-8")
    except OSError as exc:  # name the path as given, as open(path, "w") would
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        if os.path.exists(target):
            shutil.copymode(target, partial)
        os.replace(partial, target)
    except BaseException:
        if os.path.exists(partial):
            os.unlink(partial)
        raise


def _cmd_evolve(args):
    from . import chains, dynamics

    series = dynamics.chain_series(chains.load_spec(args.spec_file))
    with _replaced_on_success(args.out) if args.out else contextlib.nullcontext() as fh:
        t_star, p_star = dynamics.write_trace(series, args.tmax, args.samples, fh)
    print(f"peak: t*={t_star:.12g}  P*={p_star:.12g}")


def _cmd_design_pst(args):
    from . import design

    d = design.design_pst(args.family, args.k, args.v1)
    if args.out:
        write_json(dataclasses.asdict(d), args.out)
    pairs = ", ".join(f"{k}={v:.12g}" for k, v in d.couplings.items())
    print(f"{d.family} k={d.k} v1={d.v1:g}: {pairs}")


def _cmd_design_bound(args):
    from . import design

    value = design.dimerized_upper_bound(args.w)
    print(f"P_up({args.w:g}) = {value:.15g}")


def _cmd_design_pgt(args):
    from . import chains, dynamics, design

    spec = chains.load_spec(args.spec_file)
    series = dynamics.chain_series(spec)
    result = design.pgt_search(series, args.epsilon, args.tmax)
    if args.out:
        write_json(dataclasses.asdict(result), args.out)
    if result.reached:
        print(f"reached: t={result.t_found:.12g}  infidelity={result.best_infidelity:.3g}")
    else:
        print(f"not reached: best t={result.best_t:.12g}  "
              f"infidelity={result.best_infidelity:.3g}")


def _cmd_optimize(args):
    from . import optimize as qopt

    config = load_json(args.config, "optimize config")
    problems = qopt.problems_from_config(config)
    budget = read_value(config, "budget", int, "optimize config", qopt.DEFAULT_BUDGET)
    warm_start = read_value(config, "warm_start", bool, "optimize config", True)

    if "sweep" in config:
        results = qopt.sweep(problems, budget, warm_start=warm_start)
    else:
        result = qopt.optimize(problems[0], budget)
        results = [(result, None)]
    rows = qopt.sweep_csv_rows(results)
    # --out is written inside the CSV's block, so a failure of either leaves the old CSV
    with _replaced_on_success(args.out_csv) if args.out_csv else contextlib.nullcontext() as fh:
        if fh is not None:
            fh.write("\n".join(rows) + "\n")
        if args.out:  # only --out reads the payload, trajectories included
            payload = [res.to_dict() if res is not None else {"error": err}
                       for res, err in results]
            write_json({"sweep": payload} if "sweep" in config else payload[0], args.out)
    if "sweep" in config:
        ok = sum(1 for res, _ in results if res is not None)
        print(f"sweep: {ok}/{len(results)} problems solved")
        for row in rows[1:]:
            print(" ", row)
    else:
        print(f"best P = {result.best_p:.12g}  (-log10 infidelity {result.neg_log_infidelity:.3g}, "
              f"{result.evaluations} evaluations)")
    return {"seed": problems[0].seed}


def _cmd_glue(args):
    from . import chains, spectral

    parent = chains.load_spec(args.spec_file)
    result = spectral.glue(parent, args.bridge_v)
    child_ev = spectral.eigenvalues(chains.build_hamiltonian(result.child))
    parent_ev = spectral.eigenvalues(chains.build_hamiltonian(parent))
    contained, _ = spectral.match_contained(parent_ev, child_ev, spectral.tolerance(child_ev))
    if args.out:
        write_json(dataclasses.asdict(result.child), args.out)
    print(f"glued N={parent.n} -> N={result.child.n}; parent spectrum contained: {contained}")


def _cmd_sequences(args):
    from . import exact

    if args.k_max < 1:
        raise ValidationError(f"k-max must be >= 1, got {args.k_max}")
    if args.k_max > exact.K_CAP:  # before any row is computed
        raise ValidationError(f"k-max must be <= {exact.K_CAP}, got {args.k_max}")
    rows = []
    for k in range(1, args.k_max + 1):
        report = exact.char_poly_report(k)
        rows.append(
            {
                "k": k,
                "N": report.n,
                "sequence": report.sequence or "",
                "poly": report.max_degree,
                "certification": report.certification,
            }
        )
    if args.out:
        write_json({"rows": rows}, args.out)
    print("k,N,sequence,poly")
    for row in rows:
        print(f"{row['k']},{row['N']},{row['sequence']},{row['poly']}")


# ---------------------------------------------------------------------------
# argument parsing and manifest plumbing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The ``qstc`` argument parser, shared by every call in the process.

    It is built on the first call and the same object is returned after that;
    ``parse_args`` keeps no state on it, so callers must only parse with it,
    never change it.
    """
    parser = argparse.ArgumentParser(
        prog="qstc",
        description="Decorated transmon-chain spectra, state transfer and coupling design",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS worker threads (default: QSTC_THREADS or unlimited); "
                             "takes effect only in a fresh process, before numpy is loaded")
    parser.add_argument("--manifest", default=None,
                        help="run-manifest path (default: qstc-manifest.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and structural checks of a chain spec")
    p.add_argument("spec_file")
    p.add_argument("--verify-lemmas", action="store_true")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("evolve", help="corner-to-corner transfer trace")
    p.add_argument("spec_file")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evolve)

    pd = sub.add_parser("design", help="inverse designs and bounds")
    dsub = pd.add_subparsers(dest="design_command", required=True)
    p = dsub.add_parser("pst", help="perfect-state-transfer couplings")
    p.add_argument("--family", choices=("n8", "n11"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v1", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design_pst)
    p = dsub.add_parser("bound", help="dimerized probability envelope")
    p.add_argument("--w", type=float, required=True)
    p.set_defaults(func=_cmd_design_bound)
    p = dsub.add_parser("pgt", help="pretty-good-transfer arrival search")
    p.add_argument("--spec", dest="spec_file", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design_pgt)

    p = sub.add_parser("optimize", help="coupling optimization from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("glue", help="double a mirror-symmetric chain through a bridge qubit")
    p.add_argument("spec_file")
    p.add_argument("--bridge-v", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("sequences", help="solvability table for homogeneous chains")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sequences)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    from . import __version__

    manifest = {
        "command": ["qstc"] + argv,
        "tool_version": __version__,
        "inputs": {k: v for k, v in vars(args).items() if k != "func" and v is not None},
        "outputs": [],
        "seed": None,
        "wall_time": None,
        "error": None,
    }
    manifest_path = args.manifest or "qstc-manifest.json"
    start = time.monotonic()
    try:
        threads = _apply_threads(args.threads)
        if threads is not None:
            manifest["inputs"]["threads"] = threads
        manifest.update(args.func(args) or {})
        manifest["outputs"] = [p for p in (getattr(args, n, None) for n in ("out_csv", "out")) if p]
        code = 0
    except Exception as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, QstcError):
            code = exc.exit_code
        else:  # inputs are read at typed boundaries, so an OSError is an unwritable --out
            code = 2 if isinstance(exc, OSError) else 1
        print(f"error: {manifest['error']}", file=sys.stderr)
    manifest["wall_time"] = time.monotonic() - start
    try:
        write_json(manifest, manifest_path)
    except OSError as exc:  # manifest failure must not mask the result
        print(f"warning: could not write manifest: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
