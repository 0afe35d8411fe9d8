"""Outside-in tracer for the argshift layers.

Each layer is one module of the package.  The tracer wraps the layer's
public functions without touching the package: it rebinds every
``argshift.*`` module global that refers to a target function.  Modules
import by name (``regcert`` binds ``determinant``, ``poly_gcd``,
``rational_roots`` and ``kirillov`` when it is imported), so patching the
defining module alone would miss those calls.  Each binding site gets
its own wrapper, which lets a counter depend on the caller: a
``determinant`` called from ``regcert`` is a minor.

A span's self time is its duration minus the time of the wrapped spans
nested in it; inclusive time is counted once per outermost activation,
so recursion does not count twice.  Size counters are computed from
arguments and results and repeat exactly from run to run.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Any, Callable

LAYERS = ("exactlin", "mpoly", "liealg", "poisson", "mfshift", "regcert",
          "skewpencil", "jsonio", "cli")

# called once per scalar, term or vector: wrapping them would cost more
# than the work they do and bury the layer boundaries in overhead
SKIP = {"exactlin": {"rat", "rat_str", "vec", "is_zero_vec"},
        "mpoly": {"grlex_key"},
        "jsonio": {"vector_to_json", "vector_from_json"}}


def _coeff_bits(poly: Any) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


def _const_bits(coeffs: Any) -> int:
    """Bit length of the larger of the constant and leading coefficients,
    cleared of denominators: root search enumerates their divisors."""
    cs = [Fraction(c) for c in coeffs if c != 0]
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    return max((abs(c * den).numerator.bit_length() for c in cs[:1] + cs[-1:]), default=0)


class Tracer:
    """Per-function calls, self and inclusive time, plus size counters."""

    def __init__(self) -> None:
        self._stack: list[float] = []        # child time of each open span
        self._active: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[types.ModuleType, str, Any]] = []
        self.keys: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer at every binding site."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "argshift" or name.startswith("argshift.")}
        targets: dict[int, tuple[str, Callable]] = {}
        for layer in LAYERS:
            mod = mods[f"argshift.{layer}"]
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SKIP.get(layer, ())):
                    targets[id(fn)] = (f"{layer}.{name}", fn)
                    self.keys.add(f"{layer}.{name}")
        for mod in mods.values():
            site = mod.__name__.rpartition(".")[2]
            for name, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[1] is value:
                    self._originals.append((mod, name, value))
                    setattr(mod, name, self._wrap(hit[0], value, site))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._originals):
            setattr(mod, name, value)
        self._originals.clear()

    def _wrap(self, key: str, fn: Callable, site: str) -> Callable:
        stack, active, clock = self._stack, self._active, time.perf_counter
        measure = _MEASURES.get(key)

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            active[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[key] -= 1
                self.calls[key] += 1
                self.self_s[key] += dur - stack.pop()
                if not active[key]:
                    self.incl_s[key] += dur
                if stack:
                    stack[-1] += dur
            if measure is not None:
                measure(self.counters, site, args, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of the statistics gathered since the last reset."""
        layer_self: dict[str, float] = defaultdict(float)
        for key, t in self.self_s.items():
            layer_self[key.partition(".")[0]] += t
        return {"functions": {key: {"calls": self.calls[key], "self_s": self.self_s[key],
                                    "incl_s": self.incl_s[key]}
                              for key in sorted(self.keys)},
                "layers": {layer: layer_self[layer] for layer in LAYERS},
                "counters": {name: self.counters[name] for name in COUNTERS}}


def _bigger(counters: dict, name: str, value: int) -> None:
    counters[name] = max(counters[name], value)


def _m_rank_kernel(c: dict, site: str, args: tuple, result: Any) -> None:
    c["exactlin.rank_kernel.cells"] += args[0].rows * args[0].cols


def _m_determinant(c: dict, site: str, args: tuple, result: Any) -> None:
    c["mpoly.determinant.order_sum"] += len(args[0])
    _bigger(c, "mpoly.max_coeff_bits", _coeff_bits(result))
    if site == "regcert":
        c["regcert.minors"] += 1
        c["regcert.nonzero_minors"] += not result.is_zero()


def _m_bracket(c: dict, site: str, args: tuple, result: Any) -> None:
    c["poisson.bracket.term_pairs"] += len(args[1].terms) * len(args[2].terms)
    _bigger(c, "mpoly.max_coeff_bits", _coeff_bits(result))


def _m_result_bits(c: dict, site: str, args: tuple, result: Any) -> None:
    _bigger(c, "mpoly.max_coeff_bits", _coeff_bits(result))


def _m_rational_roots(c: dict, site: str, args: tuple, result: Any) -> None:
    _bigger(c, "mpoly.rational_roots.max_const_bits", _const_bits(args[0]))


COUNTERS = ("exactlin.rank_kernel.cells", "mpoly.determinant.order_sum",
            "mpoly.max_coeff_bits", "mpoly.rational_roots.max_const_bits",
            "poisson.bracket.term_pairs", "regcert.minors", "regcert.nonzero_minors")

_MEASURES: dict[str, Callable[[dict, str, tuple, Any], None]] = {
    "exactlin.rank_kernel": _m_rank_kernel,
    "mpoly.determinant": _m_determinant,
    "mpoly.poly_gcd": _m_result_bits,
    "poisson.bracket": _m_bracket,
    "poisson.frozen_bracket": _m_result_bits,
    "mpoly.rational_roots": _m_rational_roots,
}
