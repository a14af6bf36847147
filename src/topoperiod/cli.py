"""Command-line interface.

One subcommand per pipeline stage, so stages can be chained through
files: signals and point clouds travel as CSV, persistence diagrams,
models, and reports as JSON. Every artifact goes to --out when given,
otherwise to stdout, and is byte-for-byte deterministic for a given
input and seed.

Exit codes: 0 on success, 1 for domain or input errors and for any
other failure (a JSON object with "kind" and "message" is printed to
stderr; unexpected exceptions have kind "InternalError"), 2 for usage
errors.

Option values resolve in precedence order: explicit flag, then the
--config JSON file (keys are the long option names with underscores),
then the TOPOPERIOD_SEED environment variable for --seed, then the
built-in default.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

from .detector import PipelineConfig, detect, evaluate
from .embedding import (
    _FEATURES_NEEDED,
    acl,
    cloud_csv_text,
    delay_embed,
    find_delay,
    read_cloud_csv,
)
from .errors import TopoperiodError
from .metrics import bottleneck, hausdorff
from .model import PiecewiseSinusoidModel, fit_model, synthesize
from .persistence import (
    PersistenceDiagram,
    h1_diagram,
    persistent_homology,
    rips_filtration,
)
from .render import render_svg
from .signal_io import Signal, load_csv, load_wav, signal_csv_text, window


def _window_spec(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must look like START:END")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window bounds: {text!r}") from exc


def _load_signal(path: str, win: tuple[float, float] | None) -> Signal:
    p = Path(path)
    s = load_wav(p) if p.suffix.lower() == ".wav" else load_csv(p)
    if win is not None:
        s = window(s, win[0], win[1])
    return s


@contextlib.contextmanager
def _named(source: str) -> Iterator[None]:
    """Put ``source`` before the message of an input error; it keeps its kind."""
    try:
        yield
    except (TopoperiodError, OSError, ValueError, RecursionError) as exc:
        located = TopoperiodError(f"{source}: {exc}")
        # Nesting too deep for the decoder is bad input, not a defect.
        located.kind = "InvalidInput" if isinstance(exc, RecursionError) else _error_kind(exc)
        raise located from exc


def _load_json(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the JSON in a UTF-8 file; any error names the file."""
    with _named(path):
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))


def _config(data: Any) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
    return data


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _rows_text(rows: list | tuple, pad: str) -> str | None:
    """Dicts with one set of str keys and scalar values, each at ``pad``.

    Every row fills one template from the values' compact text, split at
    the newlines given as separators. None for rows of any other shape.
    """
    keys = rows[0].keys() if type(rows[0]) is dict else ()
    if not keys or any(type(k) is not str for k in keys) or any(
        type(row) is not dict or row.keys() != keys for row in rows
    ):
        return None
    keys = sorted(keys)
    values = json.dumps([row[k] for row in rows for k in keys], separators=("\n", ":"))
    if "[" in values[1:] or "{" in values:  # a list or dict value, or a string holding one
        return None
    fields = ",\n".join(f"{pad}  {json.dumps(k).replace('%', '%%')}: %s" for k in keys)
    row = f"{pad}{{\n{fields}\n{pad}}}"
    return ",\n".join([row] * len(rows)) % tuple(values[1:-1].split("\n"))


def _json_value(obj: Any, pad: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it at ``pad``.

    That call encodes in pure Python. Here the C encoder writes the keys
    and scalars, and newlines can separate them: it writes none inside one.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        # '"key": value' for each key in one call, with a list or dict value as 0.
        flat = {k: 0 if isinstance(obj[k], (dict, list, tuple)) else obj[k] for k in sorted(obj)}
        items = json.dumps(flat, separators=("\n", ": "))[1:-1].split("\n")
        text = ",\n".join(
            inner + (item if flat[k] is obj[k] else item[:-1] + _json_value(obj[k], inner))
            for k, item in zip(flat, items)
        )
        return f"{{\n{text}\n{pad}}}"
    text = _rows_text(obj, inner) or ",\n".join(inner + _json_value(v, inner) for v in obj)
    return f"[\n{text}\n{pad}]"


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, byte for byte."""
    return _json_value(obj, "") + "\n"


def _resolve(
    args: argparse.Namespace,
    cfg: dict,
    name: str,
    builtin: Any,
    cast: Callable[[Any], Any] | None = None,
) -> Any:
    """Pick an option value by precedence: flag, config, env (seed), default.

    A config value other than a string or null is cast from its JSON text,
    as its flag's text would be, so ``40.5`` or ``true`` is no integer. A
    value that does not cast is an error naming its flag, key or variable.
    """
    val, source = getattr(args, name, None), "--" + name.replace("_", "-")
    if val is None and cfg.get(name) is not None:
        val = cfg[name] if isinstance(cfg[name], str) else json.dumps(cfg[name])
        source = f"config {name!r}"
    if val is None and name == "seed":
        val, source = os.environ.get("TOPOPERIOD_SEED"), "TOPOPERIOD_SEED"
    if val is None:
        val = builtin
    try:
        return val if cast is None or val is None else cast(val)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _auto_or(cast: Callable[[str], Any]) -> Callable[[Any], Any]:
    """A cast that keeps the text "auto" and casts any other value."""
    return lambda val: val if val == "auto" else cast(val)


def _cmd_acl(args: argparse.Namespace, cfg: dict) -> int:
    s = _load_signal(args.input, args.window)
    _emit(signal_csv_text(acl(s, form="literal" if args.literal else "lag")), args.out)
    return 0


def _cmd_embed(args: argparse.Namespace, cfg: dict) -> int:
    s = _load_signal(args.input, args.window)
    strategy = _resolve(args, cfg, "strategy", "first-zero", str)
    dim = _resolve(args, cfg, "dim", 2, int)
    delay = _resolve(args, cfg, "delay", "auto", _auto_or(int))
    if delay == "auto":
        delay = find_delay(s, strategy)
    cloud = delay_embed(s, delay, dim)
    header = f"# delay={delay} dim={dim} strategy={strategy}\n"
    _emit(header + cloud_csv_text(cloud), args.out)
    return 0


def _cmd_subsample(args: argparse.Namespace, cfg: dict) -> int:
    from .subsampling import maxmin, random_subsample

    cloud = read_cloud_csv(args.input)
    n = _resolve(args, cfg, "n", None, int)
    if n is None:
        raise ValueError("subsample needs --n (or \"n\" in the config file)")
    method = _resolve(args, cfg, "method", "maxmin", str)
    seed = _resolve(args, cfg, "seed", 0, int)
    if method == "maxmin":
        sub = maxmin(cloud, n, seed)
    elif method == "random":
        sub = random_subsample(cloud, n, seed)
    else:
        raise ValueError(f"unknown subsample method {method!r}")
    header = f"# method={method} n={n} seed={seed}\n"
    _emit(header + cloud_csv_text(sub), args.out)
    return 0


def _cmd_persist(args: argparse.Namespace, cfg: dict) -> int:
    cloud = read_cloud_csv(args.input)
    max_dim = _resolve(args, cfg, "max_dim", 2, int)
    max_eps = _resolve(args, cfg, "max_eps", "auto", _auto_or(float))
    if max_dim == 2:
        # The same diagram as the explicit two-skeleton, without storing
        # its triangles.
        diagram = h1_diagram(cloud, max_eps)
    else:
        filtration = rips_filtration(cloud, max_dim=max_dim, max_eps=max_eps)
        diagram = persistent_homology(filtration)
    if args.render is not None:
        Path(args.render).write_text(render_svg(diagram))
    _emit(_json_text(diagram.to_dicts()), args.out)
    return 0


def _cmd_dist(args: argparse.Namespace, cfg: dict) -> int:
    metric = args.metric
    payload: dict[str, Any] = {"metric": metric}
    if metric == "bottleneck":
        dim = _resolve(args, cfg, "dim", 1, int)
        a, b = (_load_json(p, PersistenceDiagram.from_dicts) for p in (args.a, args.b))
        d = bottleneck(a, b, dim)
        payload["dim"] = dim
    else:
        d = hausdorff(read_cloud_csv(args.a), read_cloud_csv(args.b))
    payload["distance"] = None if math.isinf(d) else d
    payload["infinite"] = bool(math.isinf(d))
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_synth(args: argparse.Namespace, cfg: dict) -> int:
    model = _load_json(args.model, PiecewiseSinusoidModel.from_dict)
    rate = _resolve(args, cfg, "rate", None, float)
    if rate is None:
        raise ValueError("synth needs --rate (or \"rate\" in the config file)")
    _emit(signal_csv_text(synthesize(model, rate)), args.out)
    return 0


def _cmd_fit(args: argparse.Namespace, cfg: dict) -> int:
    s = _load_signal(args.input, args.window)
    model = fit_model(s)
    _emit(_json_text(model.to_dict()), args.out)
    return 0


def _pipeline_config(args: argparse.Namespace, cfg: dict) -> PipelineConfig:
    casts = dict(threshold=float, n=int, seed=int, method=str, strategy=str, delay=int)
    given = {k: _resolve(args, cfg, k, None, cast) for k, cast in casts.items()}
    given["subsample_size"] = given.pop("n")
    # A setting that no flag, config key or TOPOPERIOD_SEED gave keeps its default.
    return PipelineConfig(**{k: v for k, v in given.items() if v is not None})


def _cmd_detect(args: argparse.Namespace, cfg: dict) -> int:
    s = _load_signal(args.input, args.window)
    report = detect(s, _pipeline_config(args, cfg))
    _emit(_json_text(report.to_dict()), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace, cfg: dict) -> int:
    manifest = Path(args.manifest)
    with _named(str(manifest)):
        lines = manifest.read_text(encoding="utf-8").splitlines()
    entries: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{manifest}:{lineno}: expected \"path,label\"")
        entries.append((lineno, parts[0], parts[1]))
    pipeline = _pipeline_config(args, cfg)

    def dataset() -> Iterator[tuple[Signal, str]]:
        # One recording at a time: each loads just before its detect().
        for lineno, path, truth in entries:
            with _named(f"{manifest}:{lineno}"):
                signal = _load_signal(str(manifest.parent / path), None)
            yield signal, truth

    result = evaluate(dataset(), pipeline)
    payload = {
        "accuracy": result.accuracy,
        "confusion": result.confusion,
        "config": {
            "threshold": pipeline.threshold,
            "n": pipeline.subsample_size,
            "seed": pipeline.seed,
            "method": pipeline.method,
            "strategy": pipeline.strategy,
        },
        "items": [
            {
                "label": rep.label,
                "path": path,
                "significance": rep.significance_score,
                "truth": truth,
            }
            for (_, path, truth), rep in zip(entries, result.reports)
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_render(args: argparse.Namespace, cfg: dict) -> int:
    if Path(args.input).suffix.lower() == ".json":  # a diagram list or a report object
        artifact: Any = _load_json(args.input, lambda d: PersistenceDiagram.from_dicts(
            d.get("diagram", d) if isinstance(d, dict) else d))
    else:
        artifact = read_cloud_csv(args.input)
    _emit(render_svg(artifact), args.out)
    return 0


_DISPATCH = {
    "acl": _cmd_acl,
    "embed": _cmd_embed,
    "subsample": _cmd_subsample,
    "persist": _cmd_persist,
    "dist": _cmd_dist,
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "render": _cmd_render,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    Parsing keeps no state in the parser: option defaults from a config
    file are applied later, by ``_resolve``.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write the result here instead of stdout")
    shared.add_argument("--config", help="JSON file supplying option defaults")

    windowed = argparse.ArgumentParser(add_help=False)
    windowed.add_argument(
        "--window",
        type=_window_spec,
        help="half-open time range START:END in seconds",
    )

    strategies = tuple(_FEATURES_NEEDED)
    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument(
        "--threshold",
        type=float,
        help=f"significance cutoff (default {PipelineConfig.threshold})",
    )
    pipeline.add_argument(
        "--n", type=int, help=f"subsample size (default {PipelineConfig.subsample_size})"
    )
    pipeline.add_argument("--seed", type=int)
    pipeline.add_argument("--method", choices=["random", "maxmin"])
    pipeline.add_argument("--strategy", choices=strategies)
    pipeline.add_argument(
        "--delay", type=int, help="fixed embedding lag (default: auto)"
    )

    parser = argparse.ArgumentParser(
        prog="topoperiod",
        description="Detect repeating structure in 1-D signals through "
        "delay embeddings and persistent homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "acl", parents=[shared, windowed], help="lag-correlation curve of a signal"
    )
    p.add_argument("input", help="signal file (.wav or .csv)")
    p.add_argument(
        "--literal",
        action="store_true",
        help="use the degenerate product-times-sum form instead of lag correlation",
    )

    p = sub.add_parser(
        "embed", parents=[shared, windowed], help="delay-coordinate embedding"
    )
    p.add_argument("input", help="signal file (.wav or .csv)")
    p.add_argument("--delay", help='integer lag or "auto" (default auto)')
    p.add_argument(
        "--strategy",
        choices=strategies,
        help="delay selection rule used when --delay is auto",
    )
    p.add_argument("--dim", type=int, help="embedding dimension (default 2)")

    p = sub.add_parser("subsample", parents=[shared], help="reduce a point cloud")
    p.add_argument("input", help="point cloud CSV")
    p.add_argument("--n", type=int, help="number of points to keep")
    p.add_argument("--method", choices=["maxmin", "random"])
    p.add_argument("--seed", type=int)

    p = sub.add_parser(
        "persist", parents=[shared], help="persistence diagram of a point cloud"
    )
    p.add_argument("input", help="point cloud CSV")
    p.add_argument("--max-dim", type=int, help="top simplex dimension (default 2)")
    p.add_argument("--max-eps", help='scale cutoff, a number or "auto"')
    p.add_argument("--render", help="also write a barcode SVG to this path")

    p = sub.add_parser(
        "dist", parents=[shared], help="distance between diagrams or clouds"
    )
    p.add_argument(
        "metric",
        choices=["bottleneck", "hausdorff"],
        help="bottleneck compares diagram JSON, hausdorff compares cloud CSV",
    )
    p.add_argument("a", help="first input file")
    p.add_argument("b", help="second input file")
    p.add_argument("--dim", type=int, help="homology dimension for bottleneck")

    p = sub.add_parser(
        "synth", parents=[shared], help="sample a piecewise-sinusoid model"
    )
    p.add_argument("model", help="model JSON file")
    p.add_argument("--rate", type=float, help="sample rate in Hz")

    p = sub.add_parser(
        "fit", parents=[shared, windowed], help="fit a piecewise-sinusoid model"
    )
    p.add_argument("input", help="signal file (.wav or .csv)")

    p = sub.add_parser(
        "detect",
        parents=[shared, windowed, pipeline],
        help="classify a signal as harmonic",
    )
    p.add_argument("input", help="signal file (.wav or .csv)")

    p = sub.add_parser(
        "eval", parents=[shared, pipeline], help="score detection over a labeled manifest"
    )
    p.add_argument("manifest", help='CSV manifest of "path,label" lines')

    p = sub.add_parser(
        "render", parents=[shared], help="SVG view of a cloud or diagram"
    )
    p.add_argument("input", help="point cloud CSV, diagram JSON, or report JSON")

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = {} if args.config is None else _load_json(args.config, _config)
        return _DISPATCH[args.command](args, cfg)
    except Exception as exc:
        # Every error, a defect or an exhausted resource (RecursionError
        # included) too, ends as one JSON error line, not a traceback.
        kind = _error_kind(exc)
        _fail(kind, f"{type(exc).__name__}: {exc}" if kind == "InternalError" else str(exc))
        return 1


def _error_kind(exc: Exception) -> str:
    """The ``kind`` the CLI reports for an exception."""
    if isinstance(exc, TopoperiodError):
        return exc.kind
    if isinstance(exc, FileNotFoundError):
        return "FileNotFound"
    if isinstance(exc, OSError):
        return "IOError"
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return "InvalidInput"
    return "InternalError"


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"kind": kind, "message": message}, sort_keys=True) + "\n"
    )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
