//===- interp/Interpreter.h - Counting IL interpreter -----------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled module and counts executed operations, exactly the
/// measurement the paper reports: "Each version was instrumented to record
/// the total number of operations executed, stores executed, and loads
/// executed" (Figures 5-7). Every frame owns a private register file, so no
/// calling-convention memory traffic is modeled; all loads/stores counted
/// come from the IL itself.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_INTERP_INTERPRETER_H
#define RPCC_INTERP_INTERPRETER_H

#include "ir/Module.h"
#include "obs/TagProfile.h"

#include <array>
#include <string>
#include <vector>

namespace rpcc {

/// Dynamic operation counts, aggregated over the whole execution.
struct OpCounters {
  uint64_t Total = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  /// Per-opcode dynamic counts, indexed by static_cast<size_t>(Opcode).
  /// Sized by the enum's sentinel so a new opcode can never silently index
  /// out of bounds.
  std::array<uint64_t, NumOpcodes> ByOpcode{};

  uint64_t count(Opcode Op) const {
    static_assert(sizeof(ByOpcode) == NumOpcodes * sizeof(uint64_t),
                  "ByOpcode must cover every opcode");
    return ByOpcode[static_cast<size_t>(Op)];
  }
};

/// Per-function totals, letting experiments attribute traffic the way the
/// paper does ("register promotion removed 2.8 million loads from one
/// function in mlink"). Indexed by FuncId.
struct FunctionCounters {
  uint64_t Total = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
};

/// Which execute loop runs the program. All engines are observationally
/// identical — same counters, profiles, output bytes, faults, and exit codes
/// (the engine-parity tests assert it bit for bit). Switch is the readable
/// reference implementation; FastPath pre-decodes the module into flat
/// instruction streams and dispatches with zero hash lookups; Jit lowers the
/// decoded streams further to native x86-64 templates, falling back to the
/// fast path per function (see docs/INTERPRETER.md).
enum class InterpEngine : uint8_t { Switch, FastPath, Jit };

/// True when this build can execute InterpEngine::Jit: x86-64 unix hosts,
/// non-sanitizer builds (sanitizers cannot see into generated code, so
/// instrumented runs keep to the interpreted engines). Callers must check
/// before selecting the engine; interpret() reports an error otherwise.
bool jitSupported();

/// FastPath everywhere except sanitizer builds (RPCC_SANITIZE), which keep
/// the reference engine as their default so instrumented runs cover the
/// plain loop; the parity tests still exercise the fast path explicitly.
#ifdef RPCC_SANITIZER_BUILD
inline constexpr InterpEngine DefaultInterpEngine = InterpEngine::Switch;
#else
inline constexpr InterpEngine DefaultInterpEngine = InterpEngine::FastPath;
#endif

/// CLI-stable engine name: "switch", "fastpath", or "jit".
const char *interpEngineName(InterpEngine E);

/// Parses an interpEngineName spelling; returns false on anything else.
bool parseInterpEngine(const std::string &Name, InterpEngine &Out);

struct InterpOptions {
  uint64_t MaxSteps = uint64_t(1) << 33;
  size_t MaxCallDepth = 1 << 15;
  size_t HeapLimit = size_t(1) << 30;
  size_t OutputLimit = size_t(1) << 24;
  /// Cap on total simulated stack bytes across all live frames. Checked at
  /// frame entry in both engines, so the fault (message and Counters.Total)
  /// is counting-exact and engine-identical, like MaxCallDepth.
  size_t MaxFrameBytes = size_t(1) << 26;
  /// Wall-clock execution budget in milliseconds; 0 = none. Checked every
  /// 64K executed operations by both engines, so the two engines fault at
  /// the same check points — but when the clock trips is inherently
  /// nondeterministic, unlike the counting-exact limits above.
  double WallDeadlineMs = 0;
  /// When non-null, every executed load/store is attributed to its
  /// (function, innermost loop, tag) and collected in ExecResult::Profile.
  /// Build the meta from the same module being interpreted (it snapshots the
  /// final IL's loop forest). Null keeps the hot path overhead-free.
  const ProfileMeta *Profile = nullptr;
  /// Execute loop selection; observationally irrelevant by construction.
  InterpEngine Engine = DefaultInterpEngine;
  /// Reuse compiled native code across runs of the same decoded program
  /// (jit engine only). The cache key covers everything the emitter bakes
  /// into code, so a hit is observationally identical to a fresh compile;
  /// `--no-compile-cache` clears this for A/B verification, together with
  /// the suite's and the fuzzer's prefix store (served/ArtifactCache).
  bool JitCodeCache = true;
};

struct ExecResult {
  bool Ok = false;
  std::string Error;
  int64_t ExitCode = 0;
  std::string Output;
  OpCounters Counters;
  /// One entry per module function (builtins stay zero).
  std::vector<FunctionCounters> PerFunction;
  /// Per-(function, loop, tag) dynamic counts; populated only when
  /// InterpOptions::Profile was set. Invariant: the per-tag loads/stores sum
  /// exactly to Counters.Loads/Counters.Stores.
  TagProfile Profile;
  /// Wall milliseconds this run spent emitting native code (jit engine
  /// only; 0 on code-cache hits and for the interpreted engines). Kept out
  /// of the parity comparison — it is a cost report, not behavior.
  double JitCompileMs = 0;
};

/// Runs \p M from its "main" function (no arguments). Never throws; runtime
/// faults (null/bounds/step-limit) are reported in the result.
ExecResult interpret(const Module &M, const InterpOptions &Opts = {});

} // namespace rpcc

#endif // RPCC_INTERP_INTERPRETER_H
