"""Serialize machine configurations to/from JSON.

Lets users define custom cores for the sensitivity experiments without
touching Python::

    {
      "core": {"name": "my-core", "rob_entries": 96, "issue_width": 4},
      "memory": {
        "l1d": {"size_kb": 32, "ways": 8, "hit_latency": 3},
        "dram_latency": 250
      }
    }

Unspecified fields inherit from :func:`repro.params.paper_config`.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from .errors import ConfigError
from .params import CacheParams, CoreParams, MachineParams, TLBParams

_CACHE_LEVELS = ("l1i", "l1d", "l2", "l3")
_TLB_LEVELS = ("itlb", "dtlb")


def _build_cache(name: str, base: CacheParams,
                 spec: Dict[str, Any]) -> CacheParams:
    known = {"size_kb", "size_bytes", "ways", "line_bytes", "hit_latency"}
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"{name}: unknown cache fields {sorted(unknown)}")
    size = spec.get("size_bytes", base.size_bytes)
    if "size_kb" in spec:
        size = int(spec["size_kb"]) * 1024
    return CacheParams(
        name=base.name,
        size_bytes=size,
        ways=spec.get("ways", base.ways),
        line_bytes=spec.get("line_bytes", base.line_bytes),
        hit_latency=spec.get("hit_latency", base.hit_latency),
    )


def _build_tlb(name: str, base: TLBParams,
               spec: Dict[str, Any]) -> TLBParams:
    known = {"entries", "hit_latency", "miss_latency", "page_bytes"}
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"{name}: unknown TLB fields {sorted(unknown)}")
    return dataclasses.replace(base, **spec)


def machine_from_dict(spec: Dict[str, Any],
                      base: MachineParams = None) -> MachineParams:
    """Build a machine from a (partial) plain-dict description."""
    base = base if base is not None else MachineParams()
    unknown = set(spec) - {"core", "memory"}
    if unknown:
        raise ConfigError(f"unknown top-level fields {sorted(unknown)}")

    core_spec = dict(spec.get("core", {}))
    core_fields = {f.name for f in dataclasses.fields(CoreParams)}
    unknown = set(core_spec) - core_fields
    if unknown:
        raise ConfigError(f"unknown core fields {sorted(unknown)}")
    core = dataclasses.replace(base.core, **core_spec)

    memory_spec = dict(spec.get("memory", {}))
    unknown = set(memory_spec) - set(_CACHE_LEVELS) - set(_TLB_LEVELS) \
        - {"dram_latency"}
    if unknown:
        raise ConfigError(f"unknown memory fields {sorted(unknown)}")
    memory_kwargs: Dict[str, Any] = {}
    for level in _CACHE_LEVELS:
        if level in memory_spec:
            memory_kwargs[level] = _build_cache(
                level, getattr(base.memory, level), memory_spec[level]
            )
    for level in _TLB_LEVELS:
        if level in memory_spec:
            memory_kwargs[level] = _build_tlb(
                level, getattr(base.memory, level), memory_spec[level]
            )
    if "dram_latency" in memory_spec:
        memory_kwargs["dram_latency"] = memory_spec["dram_latency"]
    memory = dataclasses.replace(base.memory, **memory_kwargs)
    return MachineParams(core=core, memory=memory)


def machine_to_dict(machine: MachineParams) -> Dict[str, Any]:
    """Full plain-dict description of a machine (round-trippable)."""
    def cache(params: CacheParams) -> Dict[str, Any]:
        return {
            "size_bytes": params.size_bytes,
            "ways": params.ways,
            "line_bytes": params.line_bytes,
            "hit_latency": params.hit_latency,
        }

    def tlb(params: TLBParams) -> Dict[str, Any]:
        return dataclasses.asdict(params)

    return {
        "core": dataclasses.asdict(machine.core),
        "memory": {
            **{level: cache(getattr(machine.memory, level))
               for level in _CACHE_LEVELS},
            **{level: tlb(getattr(machine.memory, level))
               for level in _TLB_LEVELS},
            "dram_latency": machine.memory.dram_latency,
        },
    }


def load_machine(path: str,
                 base: MachineParams = None) -> MachineParams:
    """Load a machine description from a JSON file."""
    with open(path) as handle:
        try:
            spec = json.load(handle)
        except json.JSONDecodeError as error:
            raise ConfigError(f"{path}: invalid JSON ({error})") from None
    return machine_from_dict(spec, base=base)


def save_machine(machine: MachineParams, path: str) -> None:
    """Write a machine description to a JSON file."""
    with open(path, "w") as handle:
        json.dump(machine_to_dict(machine), handle, indent=2)
        handle.write("\n")
