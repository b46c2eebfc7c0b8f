"""RPR001/RPR002: the atomic-primitive encapsulation rules.

The linearizability argument for the concurrent multimap (Appendix A)
holds only if every thread goes through the atomic *interfaces* --
``load``/``store``/``compare_and_swap``/``test_and_set`` -- and never
pokes at the guarded state directly, and if ad-hoc locks/threads don't
appear outside the runtime layer where the scheduler can't see them.
"""

from __future__ import annotations

import ast

from .core import LintedFile, Rule, Violation

__all__ = [
    "AtomicInternalsRule",
    "RawThreadingRule",
    "THREADING_ALLOWLIST",
    "MULTIPROCESSING_ALLOWLIST",
]

#: Attribute names that are implementation details of the atomics.
_INTERNAL_ATTRS = frozenset({"_value", "_set", "_lock"})

#: Modules whose direct use outside ``runtime/`` bypasses the simulator.
_THREAD_MODULES = frozenset({"threading", "_thread"})

#: The only runtime modules allowed to import ``threading`` directly:
#: the atomic primitives themselves, the executors that own real worker
#: threads, and the fault-injection layer (whose supervisor must poll
#: ``Thread.is_alive`` to detect injected worker deaths).  Every other
#: module -- including elsewhere in ``runtime/`` -- goes through the
#: ``repro.runtime`` primitives so the interleave scheduler, race
#: checker, and chaos layer see every synchronization point.
THREADING_ALLOWLIST = (
    "runtime/atomics.py",
    "runtime/executors.py",
    "runtime/chaos.py",
)

#: Modules owning real OS processes / shared-memory segments.
_PROC_MODULES = frozenset({"multiprocessing", "_multiprocessing"})

#: Modules allowed to import ``multiprocessing`` directly: none.  The
#: runtime runs the paper's shared-memory machines on threads and
#: simulated schedules in one process; a raw ``multiprocessing`` use
#: would create workers no supervisor watches and segments no owner
#: unlinks.
MULTIPROCESSING_ALLOWLIST: tuple[str, ...] = ()


class AtomicInternalsRule(Rule):
    id = "RPR001"
    name = "atomic-internals"
    summary = (
        "do not touch _value/_set/_lock internals of the atomic "
        "primitives outside runtime/atomics.py"
    )

    def exempt(self, f: LintedFile) -> bool:
        return f.is_module("runtime/atomics.py")

    def check(self, f: LintedFile) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Attribute) and node.attr in _INTERNAL_ATTRS:
                out.append(self.violation(
                    f, node,
                    f"access to atomic internal `.{node.attr}`; use the "
                    "load/store/CAS/TAS interface (or runtime.atomics.Mutex)",
                ))
        return out


class RawThreadingRule(Rule):
    id = "RPR002"
    name = "raw-threading"
    summary = (
        "no raw threading outside the allowlisted runtime modules "
        "(atomics, executors, chaos), and no multiprocessing anywhere"
    )

    def _blocked_roots(self, f: LintedFile) -> frozenset[str]:
        roots = frozenset()
        if not any(f.is_module(m) for m in THREADING_ALLOWLIST):
            roots |= _THREAD_MODULES
        if not any(f.is_module(m) for m in MULTIPROCESSING_ALLOWLIST):
            roots |= _PROC_MODULES
        return roots

    def check(self, f: LintedFile) -> list[Violation]:
        blocked = self._blocked_roots(f)
        if not blocked:
            return []
        out: list[Violation] = []

        def _why(root: str) -> str:
            if root in _PROC_MODULES:
                return (
                    "; no module may own worker processes or shared-memory "
                    "segments (the runtime is shared-memory: threads and "
                    "simulated schedules in one process)"
                )
            return (
                "; use repro.runtime primitives (Mutex, AtomicCell, "
                "executors) so the interleave scheduler and race checker "
                "see every synchronization point"
            )

        for node in ast.walk(f.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in blocked:
                        out.append(self.violation(
                            f, node,
                            f"raw `import {alias.name}`" + _why(root),
                        ))
            elif isinstance(node, ast.ImportFrom):
                root = node.module.split(".")[0] if node.module else ""
                if root in blocked:
                    out.append(self.violation(
                        f, node,
                        f"raw `from {node.module} import ...`" + _why(root),
                    ))
        return out
