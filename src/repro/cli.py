"""File-level command line tool: ``repro-compress``.

Mirrors the ergonomics of the SZ/ZFP command-line utilities::

    repro-compress compress field.f32 field.rpz --shape 512,512,512 \
        --rel-bound 1e-3 --compressor SZ_T
    repro-compress compress field.f32 field.rpz --shape 512,512,512 \
        --precision 16 --compressor ZFP_P \
        --safeguard rel:1e-3 --safeguard sign --safeguard monotone:axis=0
    repro-compress decompress field.rpz field.out.f32
    repro-compress info field.rpz
    repro-compress stats field.rpz --top 10
    repro-compress profile --profile-out prof.speedscope.json \
        compress field.f32 field.rpz --shape 512,512,512 --rel-bound 1e-3
    repro-compress perf report --out perf_report.md
    repro-compress verify field.rpz
    repro-compress repair damaged.rpz repaired.rpz --json report.json
    repro-compress faults bit-flip field.rpz damaged.rpz --seed 3

``compress``, ``decompress`` and ``stats`` accept ``--trace`` (print the
pipeline span tree, stage times as percentages of the root) and
``--trace-json PATH`` (write the same spans as JSON for machines); see
``docs/observability.md``.

Raw binaries need ``--shape`` (and ``--dtype`` when not float32); ``.npy``
inputs are self-describing.  ``compress`` reports the achieved ratio and,
under a relative bound (``--rel-bound``, or a declared ``rel:`` safeguard),
the bounded fraction and maximum point-wise relative error.  It reads them
from the call record (``repro.observe.call_report``), where the layer that
enforced the bound graded the array ``decompress`` yields, so it neither
runs a decoder nor measures the array again.

``compress``/``decompress`` accept ``--journal DIR`` (crash-safe
write-ahead journaling; an interrupted job is finished by
``repro-compress resume DIR``), ``--policy SPEC`` (declarative resilience
policy, e.g. ``retries=3;chunk-timeout=2;ladder=SZ_T>GZIP``) and
``--ladder A>B`` (graceful-degradation codec chain); see
``docs/resilience.md``.

Each command builds only its own parser and imports only what it runs,
so a command costs about what its codec costs: ``main()`` builds the
whole parser tree only for an argv that names no command (``--help``, no
arguments, an unknown name).

Expected failures never produce a traceback: every command prints a
one-line ``error:`` diagnostic to stderr and exits with a meaningful
status.  Exit 2 means bad data or environment (corrupt stream, missing
file, I/O error -- and argparse's own usage errors); exit 1 means the
request itself cannot be satisfied (invalid spec or bound, exhausted
codec ladder, unresumable journal).  Anything else exiting nonzero is a
crash and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro import decompress
from repro.compressors.base import (
    AbsoluteBound,
    PrecisionBound,
    RelativeBound,
    UnsupportedBound,
    available_compressors,
)
from repro.encoding.container import StreamError
from repro.resilience.policy import ResilienceError, parse_policy

if TYPE_CHECKING:
    from repro.observe.audit import CallReport

__all__ = ["main"]


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected e.g. 512,512,512")
    if not dims or any(d <= 0 for d in dims):
        raise argparse.ArgumentTypeError(f"shape dimensions must be positive: {text!r}")
    return dims


def _parse_size(text: str) -> int:
    """Byte count with optional K/M/G suffix (binary units): '8M' -> 8 MiB."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:].upper(), 1)
    digits = text[:-1] if scale != 1 else text
    try:
        value = int(digits) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}; expected e.g. 4M, 512K, 1048576")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _parse_fill(text: str) -> str | float:
    """Fill policy: a named mode or a literal float."""
    if text in ("nan", "zero", "nearest"):
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad fill {text!r}; expected nan, zero, nearest, or a number"
        )


def _parse_keep(text: str) -> int | float:
    """Truncation point: plain int = byte count, value with '.' = fraction."""
    try:
        return float(text) if "." in text else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad keep {text!r}; expected a byte count (1024) or fraction (0.5)"
        )


def _parse_safeguard_spec(text: str) -> str:
    """Validate a ``--safeguard`` spec early; the string itself is kept."""
    from repro.safeguards import parse_safeguard

    try:
        parse_safeguard(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _parse_policy_spec(text: str) -> str:
    """Validate a ``--policy`` spec early; the string itself is kept."""
    try:
        parse_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _parse_ladder(text: str) -> list[str]:
    """``A>B>C`` fallback chain; every rung must be a registered codec."""
    rungs = [r.strip() for r in text.split(">") if r.strip()]
    if not rungs:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}; expected e.g. SZ_T>GZIP")
    known = set(available_compressors())
    for rung in rungs:
        if rung not in known:
            raise argparse.ArgumentTypeError(
                f"unknown ladder rung {rung!r}; choose from {sorted(known)}"
            )
    return rungs


def _bound_from(args) -> AbsoluteBound | RelativeBound | PrecisionBound:
    chosen = [
        b for b in (
            ("rel", args.rel_bound), ("abs", args.abs_bound), ("prec", args.precision)
        ) if b[1] is not None
    ]
    if len(chosen) != 1:
        raise ValueError("specify exactly one of --rel-bound / --abs-bound / --precision")
    kind, value = chosen[0]
    if kind == "rel":
        return RelativeBound(value)
    if kind == "abs":
        return AbsoluteBound(value)
    return PrecisionBound(value)


def _read_blob(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- commands ----------------------------------------------------------------


def _report_call(rec: CallReport, rel_value: float | None) -> str:
    """Print the call's resilience line, if it has one worth printing, and
    return the compress line's ``bounded …, max rel err …`` suffix (empty
    without a relative bound), both read from the call record."""
    resilience = rec.resilience
    if resilience is not None and not resilience.quiet:
        print(f"resilience: {resilience.summary()}", file=sys.stderr)
    if rel_value is None:
        return ""
    from repro.metrics.error import bounded_label

    audit = rec.audit()
    label = bounded_label(audit.violations, audit.n_points, audit.zeros_modified)
    # A call over no points leaves no error to report.
    return f", bounded {label}, max rel err {audit.max_rel or 0.0:.3e}"


def _journaled_compress(args, bound, rel_value) -> int:
    from repro.observe.audit import call_report
    from repro.resilience import run_compress_job

    with call_report() as rec:
        result = run_compress_job(
            args.input,
            args.output,
            bound,
            journal_dir=args.journal,
            shape=args.shape,
            dtype=args.dtype,
            compressor=args.compressor,
            safeguards=list(args.safeguard) if args.safeguard else None,
            ladder=args.ladder,
            policy=args.policy,
            chunk_bytes=args.chunk_size,
            workers=args.workers,
            parity=args.parity,
            group_size=args.group_size if args.parity is not None else None,
        )
    line = f"{args.input}: {result.summary()}"
    if result.redone == result.n_chunks:
        # This call compressed every chunk, so its record covers the array.
        line += _report_call(rec, rel_value)
    print(line)
    return 0


def _cmd_compress(args) -> int:
    from repro.data.io import load_array
    from repro.observe.audit import call_report
    from repro.resilience.ladder import _chain_label, _wrapped_compressor

    bound = _bound_from(args)
    compressor, label = _wrapped_compressor(args.compressor, args.safeguard, args.ladder)
    rel_value = bound.value if isinstance(bound, RelativeBound) else None
    if rel_value is None and args.safeguard:
        # A declared rel:BR safeguard guarantees the bound even when the
        # inner codec was driven by an absolute/precision bound.
        rel_value = getattr(compressor, "declared_rel_bound", None)
    if args.journal is not None:
        return _journaled_compress(args, bound, rel_value)
    data = load_array(args.input, args.shape, np.dtype(args.dtype))
    chunked_opts = (args.chunk_size, args.workers, args.parity, args.policy)
    chunked = any(v is not None for v in chunked_opts)
    if chunked:
        from repro.core.chunked import ChunkedCompressor

        kwargs = {}
        if args.chunk_size is not None:
            kwargs["chunk_bytes"] = args.chunk_size
        if args.workers is not None:
            kwargs["workers"] = args.workers
        if args.parity is not None:
            kwargs["parity"] = args.parity
            kwargs["group_size"] = args.group_size
        if args.policy is not None:
            kwargs["policy"] = args.policy
        compressor = ChunkedCompressor(compressor, **kwargs)
    # The layer that enforces a relative bound grades the array it
    # produced into the call record, which the printed bound is read from.
    with call_report() as rec:
        blob = compressor.compress(data, bound)
    # The chain the stream records: a chunked inner also carries the
    # policy's ladder rungs.
    label = _chain_label(compressor.inner if chunked else compressor, label)
    if chunked:
        label += (
            f" ({rec.resilience.n_chunks} chunks x {compressor.workers} workers"
            + (f", k={compressor.parity} parity" if compressor.parity else "")
            + ")"
        )
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(
        f"{args.input}: {data.nbytes} -> {len(blob)} bytes "
        f"({data.nbytes / len(blob):.2f}x) with {label}"
        + _report_call(rec, rel_value)
    )
    if args.report:
        from repro.report import quality_report

        print(quality_report(data, blob).format())
    return 0


def _cmd_decompress(args) -> int:
    if args.journal is not None:
        if args.tolerate_corruption:
            print("error: --journal and --tolerate-corruption are mutually "
                  "exclusive (resume needs deterministic chunk output)",
                  file=sys.stderr)
            return 2
        from repro.resilience import run_decompress_job

        result = run_decompress_job(args.input, args.output, journal_dir=args.journal)
        print(f"{args.output}: {result.summary()}")
        return 0
    from repro.data.io import save_array

    blob = _read_blob(args.input)
    if args.tolerate_corruption:
        from repro.core.chunked import recover_array

        recon, report = recover_array(blob, args.fill)
        if recon is None:
            print(f"error: {args.input}: unrecoverable: {report.failures[0].error}",
                  file=sys.stderr)
            return 2
        if report is not None:
            print(f"{args.input}: {report.summary()}", file=sys.stderr)
    else:
        recon = decompress(blob)
    save_array(args.output, recon)
    print(f"{args.output}: {recon.shape} {recon.dtype}")
    return 0


def _cmd_resume(args) -> int:
    from repro.resilience import resume_job

    result = resume_job(args.journal)
    print(result.summary())
    return 0


def _cmd_info(args) -> int:
    from repro.inspection import inspect_stream
    from repro.observe.attribution import attribute_model, section_kind_map

    blob = _read_blob(args.input)
    model = inspect_stream(blob)
    model.raise_if_damaged()
    box = model.box
    print(f"codec:  {model.codec}")
    if model.codec != "ARCHIVE":
        print(f"shape:  {box.get_shape('shape')}")
        print(f"dtype:  {box.get_dtype('dtype').name}")
    print(f"bytes:  {len(blob)}")
    print(f"format: v{model.version}" + (" (checksummed)" if model.checksummed else ""))
    if model.codec == "SAFE":
        print(f"inner:  {box.get_str('inner_codec')}")
        print(f"safeguards: {'; '.join(model.safeguards) or '(none)'}")
        print(f"patched: {box.get_u64('n_patch')} point(s)")
    if model.codec == "CHUNKED":
        print(f"inner:  {box.get_str('inner_codec')}")
        print(f"chunks: {box.get_u64('n_chunks')}")
        chain, codecs, _, degraded = model.ladder
        if chain is not None:
            print(f"ladder: {chain}")
        if codecs is not None:
            from collections import Counter

            parts = ", ".join(f"{n}x {c}" for c, n in sorted(Counter(codecs).items()))
            print(f"codec mix: {parts}"
                  + (f" ({degraded} chunk(s) fell back)" if degraded else ""))
        if model.parity is not None:
            print(
                f"parity: k={model.parity.k} per group of {model.parity.group_size} "
                f"({len(box.get('parity'))} parity bytes)"
            )
    if model.codec == "ARCHIVE":
        fields = [s for s in model.sections if s.child is not None]
        print(f"fields: {len(fields)}")
        for sec in fields:
            child = sec.child
            print(f"  field {sec.key[6:]:12s} {child.codec} {child.shape} "
                  f"{child.dtype.name}")
    tree = attribute_model(model)
    kinds = section_kind_map(tree)
    totals = tree.kind_totals()
    overhead = totals.get("framing", 0) + totals.get("checksum", 0)
    for sec in model.sections:
        line = f"  section {sec.key:12s} {sec.nbytes:10d} B"
        if sec.key in kinds:
            line += f"  [{kinds[sec.key]}]"
        print(line)
    print(f"container overhead: {overhead} B framing+CRC "
          f"({100.0 * overhead / len(blob):.2f}%)")
    return 0


def _cmd_stats(args) -> int:
    from repro.report import build_report

    blob = _read_blob(args.input)
    if args.top:
        # Hot-spot table wants the decode's span tree: force tracing on
        # for this command and capture into a private sink.
        from repro.observe import get_tracer, render_top_spans

        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        try:
            with tracer.capture() as captured:
                report = build_report(blob)
        finally:
            tracer.enabled = was_enabled
        print(report.format())
        print()
        print(render_top_spans(captured, n=args.top))
    else:
        print(build_report(blob).format())
    return 0


def _cmd_profile(args) -> int:
    rest = list(args.cmd)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("error: profile: missing command to run, e.g. "
              "repro-compress profile compress in.npy out.rpz --rel-bound 1e-3",
              file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("error: profile: cannot nest profile commands", file=sys.stderr)
        return 2
    from repro.observe import (
        enable_tracing,
        get_tracer,
        install_profiler,
        uninstall_profiler,
    )

    # Samples are attributed to the innermost open span, so tracing must
    # be on for the duration even when the wrapped command didn't ask.
    enable_tracing(True)
    get_tracer().clear()
    try:
        install_profiler(hz=args.hz, memory=args.memory)
    except ValueError as exc:
        print(f"error: profile: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            code = main(rest)
        except SystemExit as exc:  # nested argparse error: still report
            code = exc.code if isinstance(exc.code, int) else 2
    finally:
        profile = uninstall_profiler()
    fmt = args.format or ("speedscope" if args.profile_out else "table")
    if fmt == "speedscope":
        text = profile.speedscope_json(name=" ".join(rest), indent=2) + "\n"
    elif fmt == "collapsed":
        text = profile.collapsed()
    else:
        text = profile.table() + "\n"
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            fh.write(text)
        print(
            f"profile: {profile.n_samples} samples over "
            f"{profile.duration_s:.3f}s at {profile.hz:g} Hz -> "
            f"{args.profile_out} ({fmt})",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return code


def _cmd_perf(args) -> int:
    from repro.observe.ledger import (
        LedgerError,
        read_ledger,
        render_trend_report,
        resolve_ledger_path,
    )

    path = args.ledger or resolve_ledger_path()
    if not path:
        print("error: perf: ledger disabled (REPRO_LEDGER=off) and no --ledger",
              file=sys.stderr)
        return 2
    try:
        entries = read_ledger(path)
    except LedgerError as exc:
        print(f"error: perf: {exc}", file=sys.stderr)
        return 2
    report = render_trend_report(entries, last_n=args.last)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"perf: wrote {args.out} ({len(entries)} ledger entries)")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_audit(args) -> int:
    from repro.data.io import load_array
    from repro.observe.audit import audit_stream

    blob = _read_blob(args.input)
    original = None
    if args.original is not None:
        original = load_array(args.original, args.shape, np.dtype(args.dtype))
    report = audit_stream(blob, original, check_theorem3=not args.no_theorem3)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=str)
    print(f"{args.input}:")
    print(report.format())
    return 0 if report.ok else 2


def _cmd_explain(args) -> int:
    from repro.data.io import load_array
    from repro.observe.quality import explain_stream

    blob = _read_blob(args.input)
    original = None
    if args.original is not None:
        original = load_array(args.original, args.shape, np.dtype(args.dtype))
    report = explain_stream(blob, original, mad_k=args.mad_k)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=str)
    text = report.format(max_depth=args.depth)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"explain: wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 2


def _cmd_verify(args) -> int:
    from repro.integrity import verify_stream

    report = verify_stream(_read_blob(args.input))
    print(f"{args.input}: {report.summary()}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0 if report.ok else 2


def _cmd_repair(args) -> int:
    from repro.integrity import repair_stream

    blob = _read_blob(args.input)
    fixed, report = repair_stream(blob)
    with open(args.output, "wb") as fh:
        fh.write(fixed)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    print(f"{args.input}: {report.summary()}")
    return 0 if report.ok else 2


def _cmd_faults(args) -> int:
    from repro.testing import faults

    blob = _read_blob(args.input)
    if args.mode == "bit-flip":
        out = faults.flip_random_bits(blob, n=args.count, seed=args.seed)
    elif args.mode == "truncate":
        out = faults.truncate(blob, args.keep)
    elif args.mode == "drop-section":
        out = faults.drop_section(blob, args.key)
    elif args.mode == "corrupt-section":
        out = faults.corrupt_section(blob, args.key, n_bits=args.count, seed=args.seed)
    elif args.mode == "corrupt-safeguards":
        out = faults.corrupt_safeguards(blob, n_bits=args.count, seed=args.seed)
    else:  # corrupt-chunk
        out = faults.corrupt_chunk(blob, args.index, n_bits=args.count, seed=args.seed)
    with open(args.output, "wb") as fh:
        fh.write(out)
    print(f"{args.output}: {args.mode} applied, {len(blob)} -> {len(out)} bytes")
    return 0


# -- parsers -----------------------------------------------------------------


def _trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="print the pipeline span tree afterwards")
    parser.add_argument("--trace-json", default=None, metavar="PATH",
                        help="write the span tree as JSON to PATH")


def _metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", choices=["openmetrics", "jsonl"], default=None,
        help="after the command, export the metrics this run moved "
             "(registry diff) in the chosen format")
    parser.add_argument(
        "--metrics-path", default=None, metavar="PATH",
        help="write --metrics-out output to PATH instead of stdout")


def _original_flags(parser: argparse.ArgumentParser, report: str) -> None:
    """``input`` plus the ``--original`` field options of audit/explain."""
    parser.add_argument("input")
    parser.add_argument("--original", default=None, metavar="PATH",
                        help=f"original field file; enables the {report}")
    parser.add_argument("--shape", type=_parse_shape, default=None,
                        help="comma-separated dims for a raw binary --original")
    parser.add_argument("--dtype", choices=["float32", "float64"], default="float32")


def _args_compress(comp: argparse.ArgumentParser) -> None:
    comp.add_argument("input")
    comp.add_argument("output")
    comp.add_argument("--shape", type=_parse_shape, default=None,
                      help="comma-separated dims for raw binary input")
    comp.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    comp.add_argument("--compressor", choices=available_compressors(), default="SZ_T")
    comp.add_argument("--rel-bound", type=float, default=None,
                      help="point-wise relative error bound")
    comp.add_argument("--abs-bound", type=float, default=None,
                      help="absolute error bound")
    comp.add_argument("--precision", type=int, default=None,
                      help="bit precision (FPZIP / ZFP_P)")
    comp.add_argument("--safeguard", action="append", type=_parse_safeguard_spec,
                      default=None, metavar="SPEC",
                      help="wrap the compressor so a point-wise property is "
                           "guaranteed bit-exactly (repeatable): abs:EB, "
                           "rel:BR, ulp:K, sign, zero, nonfinite, "
                           "monotone:axis=N, range or range:LO,HI")
    comp.add_argument("--report", action="store_true",
                      help="print a full quality report after compressing")
    comp.add_argument("--chunk-size", type=_parse_size, default=None, metavar="SIZE",
                      help="split into chunks of SIZE bytes (K/M/G suffix allowed) "
                           "and compress them in parallel")
    comp.add_argument("--workers", type=_positive_int, default=None, metavar="N",
                      help="parallel chunk workers (default: all available CPUs; "
                           "implies --chunk-size 4M when set alone)")
    comp.add_argument("--parity", type=_positive_int, default=None, metavar="K",
                      help="store K Reed-Solomon parity blocks per chunk group "
                           "(implies chunking)")
    comp.add_argument("--group-size", type=_positive_int, default=8, metavar="M",
                      help="data chunks per parity group (default 8)")
    comp.add_argument("--policy", type=_parse_policy_spec, default=None,
                      metavar="SPEC",
                      help="resilience policy spec, e.g. 'retries=3;backoff=0.1;"
                           "chunk-timeout=2;job-timeout=60;memory=512M;"
                           "breaker=0.5/10;ladder=SZ_T>GZIP' (implies chunking; "
                           "see docs/resilience.md)")
    comp.add_argument("--ladder", type=_parse_ladder, default=None, metavar="A>B",
                      help="graceful-degradation fallback chain tried in order "
                           "when the compressor fails or breaks the bound, "
                           "e.g. SZ_T>GZIP")
    comp.add_argument("--journal", default=None, metavar="DIR",
                      help="write-ahead journal directory: the job can be "
                           "killed at any point and finished with "
                           "'repro-compress resume DIR', producing the same "
                           "bytes as an uninterrupted run")
    _trace_flags(comp)
    _metrics_flags(comp)


def _args_decompress(dec: argparse.ArgumentParser) -> None:
    dec.add_argument("input")
    dec.add_argument("output")
    dec.add_argument("--tolerate-corruption", action="store_true",
                     help="repair parity-covered chunks and recover intact "
                          "chunks of a damaged stream (report goes to stderr)")
    dec.add_argument("--fill", type=_parse_fill, default="nan", metavar="MODE",
                     help="fill for unrecoverable spans with "
                          "--tolerate-corruption: nan, zero, nearest, or a "
                          "number (default nan)")
    dec.add_argument("--journal", default=None, metavar="DIR",
                     help="write-ahead journal directory enabling crash-safe "
                          "resume via 'repro-compress resume DIR'")
    _trace_flags(dec)
    _metrics_flags(dec)


def _args_resume(res: argparse.ArgumentParser) -> None:
    res.add_argument("journal", help="journal directory of the interrupted job")


def _args_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input")


def _args_stats(stats: argparse.ArgumentParser) -> None:
    stats.add_argument("input")
    stats.add_argument("--top", type=_positive_int, default=None, metavar="N",
                       help="also print the N slowest pipeline spans by "
                            "self-time (wall and CPU), from the decode's "
                            "trace tree")
    _trace_flags(stats)
    _metrics_flags(stats)


def _args_profile(prof: argparse.ArgumentParser) -> None:
    prof.add_argument("--hz", type=float, default=97.0,
                      help="sampling rate in Hz (default 97; prime so it "
                           "cannot phase-lock with periodic work)")
    prof.add_argument("--memory", action="store_true",
                      help="also run tracemalloc and record per-span "
                           "allocation high-water marks")
    prof.add_argument("--profile-out", default=None, metavar="PATH",
                      help="write the profile here (default: stdout)")
    prof.add_argument("--format", choices=["speedscope", "collapsed", "table"],
                      default=None,
                      help="output format (default: speedscope with "
                           "--profile-out, table otherwise)")
    prof.add_argument("cmd", nargs=argparse.REMAINDER, metavar="command",
                      help="the repro-compress command to profile, e.g. "
                           "compress in.npy out.rpz --rel-bound 1e-3")


def _args_perf(perf: argparse.ArgumentParser) -> None:
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_report = perf_sub.add_parser(
        "report",
        help="render the markdown trend report from the benchmark ledger",
    )
    perf_report.add_argument("--ledger", default=None, metavar="PATH",
                             help="ledger path (default: $REPRO_LEDGER or "
                                  "./results/ledger.jsonl)")
    perf_report.add_argument("--last", type=_positive_int, default=10,
                             help="trend window: newest N runs per bench "
                                  "(default 10)")
    perf_report.add_argument("--out", default=None, metavar="PATH",
                             help="write the markdown here instead of stdout")


def _args_audit(audit: argparse.ArgumentParser) -> None:
    _original_flags(audit, "point-wise error audit and the Theorem 3 check")
    audit.add_argument("--json", default=None, metavar="PATH",
                       help="additionally write the full audit report as JSON")
    audit.add_argument("--no-theorem3", action="store_true",
                       help="skip the cross-base quantization-index check")
    _metrics_flags(audit)


def _args_explain(expl: argparse.ArgumentParser) -> None:
    _original_flags(expl, "point-wise error-quality section of the report")
    expl.add_argument("--json", default=None, metavar="PATH",
                      help="additionally write the full explain report as JSON")
    expl.add_argument("--out", default=None, metavar="PATH",
                      help="write the markdown report to PATH instead of stdout")
    expl.add_argument("--mad-k", type=float, default=5.0,
                      help="anomaly threshold: flag chunks deviating more than "
                           "K median-absolute-deviations from the stream "
                           "median (default 5.0)")
    expl.add_argument("--depth", type=_positive_int, default=3,
                      help="attribution-tree depth in the markdown (default 3)")


def _args_repair(rep: argparse.ArgumentParser) -> None:
    rep.add_argument("input")
    rep.add_argument("output")
    rep.add_argument("--json", default=None, metavar="PATH",
                     help="write the per-chunk RepairReport as JSON")


def _args_faults(flt: argparse.ArgumentParser) -> None:
    flt.add_argument("mode", choices=[
        "bit-flip", "truncate", "drop-section", "corrupt-section", "corrupt-chunk",
        "corrupt-safeguards",
    ])
    flt.add_argument("input")
    flt.add_argument("output")
    flt.add_argument("--seed", type=int, default=0,
                     help="RNG seed for the random-bit modes (default 0)")
    flt.add_argument("--count", type=_positive_int, default=1, metavar="N",
                     help="number of bits to flip (default 1)")
    flt.add_argument("--keep", type=_parse_keep, default=0.5,
                     help="truncate: bytes to keep (int) or fraction (float, "
                          "default 0.5)")
    flt.add_argument("--key", default="payload",
                     help="section name for drop-section / corrupt-section "
                          "(default 'payload')")
    flt.add_argument("--index", type=int, default=0,
                     help="chunk index for corrupt-chunk (default 0)")


#: Every command: its help line, the function adding its arguments and its
#: handler, in the order ``--help`` lists them.
_COMMANDS: dict[str, tuple[
    str, Callable[[argparse.ArgumentParser], None], Callable[[argparse.Namespace], int]
]] = {
    "compress": ("compress a field file", _args_compress, _cmd_compress),
    "decompress": ("reconstruct a compressed stream", _args_decompress, _cmd_decompress),
    "resume": (
        "finish an interrupted journaled compress/decompress job: "
        "re-does only chunks the journal has no valid record for and "
        "commits the identical output an uninterrupted run produces",
        _args_resume, _cmd_resume,
    ),
    "info": ("describe a compressed stream", _args_input, _cmd_info),
    "stats": (
        "decode a stream once and report chunk count, per-section "
        "sizes and decode-side telemetry (CRC verification time)",
        _args_stats, _cmd_stats,
    ),
    "profile": (
        "run another repro-compress command under the sampling "
        "profiler and emit a span-attributed profile "
        "(speedscope flamegraph JSON, collapsed stacks, or a table)",
        _args_profile, _cmd_profile,
    ),
    "perf": (
        "performance-ledger tooling (see docs/observability.md)",
        _args_perf, _cmd_perf,
    ),
    "audit": (
        "audit a stream's error-bound conformance: per-chunk max "
        "relative error vs the recorded bound, Lemma 2's b_a' check, "
        "Theorem 3's cross-base index deviation (exit 0 = conformant, "
        "2 = violated)",
        _args_audit, _cmd_audit,
    ),
    "explain": (
        "byte-attribution and quality report for a stream: who owns "
        "each byte (framing, CRCs, entropy table vs payload, outliers, "
        "safeguard patches, parity), per-chunk anomaly flags, and -- "
        "with --original -- the point-wise error distribution "
        "(exit 0 = intact, 2 = damaged)",
        _args_explain, _cmd_explain,
    ),
    "verify": (
        "check checksums and structure without decompressing "
        "(exit 0 = intact, 2 = damaged)",
        _args_input, _cmd_verify,
    ),
    "repair": (
        "rebuild damaged chunks of a parity-bearing stream from "
        "Reed-Solomon parity (exit 0 = fully repaired, 2 = losses remain)",
        _args_repair, _cmd_repair,
    ),
    "faults": (
        "inject a deterministic fault into a stream (testing/repro)",
        _args_faults, _cmd_faults,
    ),
}


def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with ``only``, just that command's subparser."""
    parser = argparse.ArgumentParser(
        prog="repro-compress",
        description="Error-bounded lossy compression of binary/npy fields.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        # Spelled out when one subparser is built, so the usage line of an
        # ``unrecognized arguments`` error still lists every command.
        metavar=None if only is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if only in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Any argv that names no command (--help, none, an unknown name) gets
    # the whole tree, so every usage and error text comes out as before.
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parser(only).parse_args(argv)
    handler = _COMMANDS[args.command][2]
    tracing = bool(getattr(args, "trace", False) or getattr(args, "trace_json", None))
    if tracing:
        from repro.observe import enable_tracing, get_tracer

        enable_tracing(True)
        get_tracer().clear()
    metrics_fmt = getattr(args, "metrics_out", None)
    if metrics_fmt:
        from repro.observe import metrics as _registry

        metrics_before = _registry().snapshot()
    try:
        return handler(args)
    except StreamError as exc:
        print(f"error: {getattr(args, 'input', '?')}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResilienceError, UnsupportedBound, ValueError) as exc:
        # Expected "the request cannot be satisfied" failures: bad specs,
        # unsupported bounds, exhausted ladders, unresumable journals.
        # One line, exit 1 -- distinct from bad data/environment (2).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracing:
            tracer = get_tracer()
            if args.trace_json:
                with open(args.trace_json, "w") as fh:
                    fh.write(tracer.to_json())
            if args.trace:
                rendered = tracer.render()
                if rendered:
                    print(rendered)
        if metrics_fmt:
            from repro.observe import metrics_to_jsonl, to_openmetrics

            delta = _registry().diff(metrics_before)
            text = (
                to_openmetrics(delta)
                if metrics_fmt == "openmetrics"
                else metrics_to_jsonl(delta)
            )
            if args.metrics_path:
                with open(args.metrics_path, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)


def _entry() -> int:  # pragma: no cover - thin wrapper for console_scripts
    try:
        return main()
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; exit quietly like
        # well-behaved unix tools.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_entry())
