//===- jit/Jit.h - Optimizing template JIT for decoded IL -------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third interpreter engine: a native x86-64 tier over DecodedFunction
/// streams (branch targets already instruction indices, addresses already
/// baked, callees already FuncIds). Anything with observable semantics —
/// memory faults, div/rem guards, fpToIntSat, calls, profiling — goes
/// through runtime shims that reuse the exact Machine services both
/// interpreters use, so behavior and fault messages stay byte-identical.
///
/// Beyond the baseline templates this tier carries four optimizations, all
/// invisible to the counting contract:
///
///  * Block-local host register allocation: the hottest IL registers of
///    each basic block are cached in free caller-saved host registers,
///    loaded at block entry and written back at block exit and around
///    call/shim sites — every point the interpreters could observe the
///    memory register file sees identical contents (see JitRegAlloc.h).
///  * Superinstruction templates emitted directly from the unfused stream
///    (compare+branch flag reuse, LoadI folding, FMul+FAdd/FSub), counting
///    both constituent steps exactly like the fast path's fused handlers.
///  * Segment counting: each counting segment's closing instruction runs
///    one `inc` of the segment's hit counter, the same counters the fast
///    path bumps and Machine expands once after the run; fault paths
///    settle the cut segment through the shared settle routine at the
///    precise step index.
///  * Per-function lazy compilation plus a process-wide code cache keyed on
///    the decoded stream, so tiny programs and repeated suite/fuzz runs
///    stop paying emission cost.
///
/// Counting-exactness is the design constraint: the step counter lives in a
/// pinned register flushed at the same points the fast path flushes its
/// local, segment hits land in the Machine's own counters, and budgets
/// (MaxSteps, MaxFrameBytes, WallDeadlineMs) are checked at the identical
/// program points, so the budget-parity tests hold including
/// Counters.Total. The per-step check is the fast path's single compare
/// against JitRT::StopCell, frames come from the Machine's one frame
/// routine, and the memory shims go through its one address decoder.
///
/// Functions the emitter declines (an operation outside the template set,
/// out-of-range displacements) simply get no native entry and run on the
/// fast-path engine — the per-function fallback that makes --engine=jit
/// total.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_JIT_JIT_H
#define RPCC_JIT_JIT_H

#include "interp/Decode.h"
#include "interp/Interpreter.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace rpcc {

class Machine;

// The JIT exists only on x86-64 unix hosts and outside sanitizer builds
// (generated code is invisible to sanitizer instrumentation). Everything
// else compiles the interface but jitSupported() is false and
// jitProgramFor returns nothing.
#if defined(__x86_64__) && defined(__unix__) && !defined(RPCC_NO_JIT)
#define RPCC_JIT_AVAILABLE 1
#else
#define RPCC_JIT_AVAILABLE 0
#endif

/// Shared cell block between emitted code and the runtime shims. Pinned in
/// r15 for the whole native activation; emitted code addresses fields by
/// offsetof, so the layout is part of the emitter's ABI. Standard layout on
/// purpose — keep plain data only.
///
/// Since the same machine code can be executed by many Machine instances
/// (the code cache shares compiled programs), emitted code never bakes a
/// per-Machine pointer: the segment hit counters, the global image, and the
/// heap and stack segments are all reached through cells here.
struct JitRT {
  /// Counters.Total while native frames are live. Emitted code keeps it in
  /// r12 and flushes here around calls and exits, exactly where the fast
  /// path flushes its TotalLoc local.
  uint64_t TotalCell = 0;
  /// The fast path's Stop (Machine::stepStop), compared against r12 every
  /// step: reaching it calls the step stub, whose shim runs the step-limit
  /// check and the deadline poll and writes the next Stop back. Shared by
  /// all native frames; set at every entry from C++ and after every generic
  /// call. A value left from an older Total is only ever too low.
  uint64_t StopCell = 0;
  /// RegArena.data(), refreshed by the call shims after any callee growth;
  /// emitted code rebases its frame pointer from it after every call.
  uint64_t *RegArenaData = nullptr;
  /// StackMem.data(), same refresh discipline; frame-relative scalar ops
  /// address host memory directly through it.
  uint8_t *StackData = nullptr;
  /// Mirror of InterpFault::Active (0/1), updated by every shim that can
  /// unwind with a fault; emitted code tests it after calls.
  uint64_t FaultCell = 0;
  /// Machine::SegHits.data(), indexed by segment id; stable for the whole
  /// run (sized before execution starts). Pinned in r14.
  uint64_t *SegHits = nullptr;
  /// The global image: base pointer only — its size is baked into code as
  /// an immediate (it is part of the code-cache key and never changes
  /// after layout).
  uint8_t *GlobalData = nullptr;
  /// Heap segment, refreshed by the call shims (only the malloc builtin,
  /// reached through a call, can grow it mid-activation).
  uint8_t *HeapData = nullptr;
  uint64_t HeapSize = 0;
  /// StackMem.size(); grows/shrinks only across calls, same refresh.
  uint64_t StackSize = 0;
  /// Current counting segment: r12 snapshot at its entry and its first
  /// instruction index. Fault paths hand (r12 - BlockSnap [- 1]), the
  /// number of its steps to count, to the flush shim, which settles them
  /// through the shared settle routine. Written by emitted code with 32-bit
  /// stores (BlockFirst/CurFn), so they must start zeroed — default init
  /// does.
  uint64_t BlockSnap = 0;
  uint64_t BlockFirst = 0;
  /// FuncId of the innermost native frame, maintained by prologues and
  /// restored after calls; the shims resolve DecodedFunction-relative
  /// operands (argument pools, fault messages, the flush walk) through it.
  uint64_t CurFn = 0;
  // Shim entry points, invoked as `call qword ptr [r15 + offsetof]`. Typed
  // void* so this header needs no shim signatures; JitRuntime.cpp installs
  // and casts them.
  const void *HelpLoad = nullptr;
  const void *HelpStore = nullptr;
  const void *HelpDiv = nullptr;
  const void *HelpRem = nullptr;
  const void *HelpFpToInt = nullptr;
  const void *HelpCall = nullptr;
  const void *HelpCallInd = nullptr;
  const void *HelpStepSlow = nullptr;
  const void *HelpFault = nullptr;
  const void *HelpProfile = nullptr;
  const void *HelpFlushCounters = nullptr;
  /// The owning Machine, recovered by the shims.
  Machine *M = nullptr;
};

/// One decoded program's worth of lazily compiled native code, shared
/// across every Machine executing an identical decoded stream (the code
/// cache hands out the same instance). Thread-safe: entries publish through
/// atomics, compilation serializes on a mutex, and each function gets its
/// own mapping flipped RW -> RX before publication so no thread ever
/// executes writable memory.
class JitProgram {
public:
  /// Native calling convention of a compiled function: the shared runtime
  /// block, the frame's base index into RegArena, and the frame's byte
  /// offset into StackMem. Returns the IL return value (0 for void/fault).
  using Entry = uint64_t (*)(JitRT *RT, uint64_t RegBase, uint64_t FrameOff);

  JitProgram(size_t NumFuncs, uint64_t GlobalSize, bool Profiled);
  ~JitProgram();
  JitProgram(const JitProgram &) = delete;
  JitProgram &operator=(const JitProgram &) = delete;

  /// Published native entry, or null when \p F is a builtin, was declined,
  /// or has not been compiled yet. Lock-free; the dispatch hot path.
  Entry entry(FuncId F) const {
    return F < Entries.size()
               ? reinterpret_cast<Entry>(
                     Entries[F].load(std::memory_order_acquire))
               : nullptr;
  }
  /// True once \p F has been tried and declined — callers stop asking.
  bool declined(FuncId F) const {
    return F < Declined.size() &&
           Declined[F].load(std::memory_order_acquire) != 0;
  }
  /// Compiles \p DF on first demand (no-op if already compiled/declined by
  /// another thread) and returns the published entry, or null on decline.
  /// \p OutCompileUs reports wall microseconds actually spent emitting
  /// (0 when another thread got there first).
  Entry compile(const DecodedFunction &DF, uint64_t &OutCompileUs);

  // Cost/diagnostic totals over the program's lifetime.
  size_t compiledCount() const { return NCompiled.load(); }
  size_t codeBytes() const { return NCodeBytes.load(); }
  size_t fusedPairs() const { return NFusedPairs.load(); }
  size_t residentRegs() const { return NResidentRegs.load(); }

  uint64_t globalSize() const { return GlobalSize; }
  bool profiled() const { return Profiled; }

private:
  const uint64_t GlobalSize; ///< baked into bounds checks
  const bool Profiled;       ///< emit profile-shim calls
  std::vector<std::atomic<void *>> Entries;
  std::vector<std::atomic<uint8_t>> Declined;
  std::mutex CompileMu;
  struct Chunk {
    uint8_t *Mem;
    size_t Size;
  };
  std::vector<Chunk> Chunks; ///< one RX mapping per compiled function
  std::atomic<size_t> NCompiled{0}, NCodeBytes{0}, NFusedPairs{0},
      NResidentRegs{0};
};

/// Shared program for \p DM decoded unfused against a global image of
/// \p GlobalSize bytes (profiling on/off changes emission, so it is part of
/// the identity). With \p UseCache, consults the process-wide cache keyed
/// on the decoded stream's content — everything the emitter bakes into code
/// — so byte-identical programs across runs share machine code; without,
/// returns a private instance. Null when the build has no JIT.
std::shared_ptr<JitProgram> jitProgramFor(const DecodedModule &DM,
                                          uint64_t GlobalSize, bool Profiled,
                                          bool UseCache);

/// Process-wide code-cache hit count (diagnostics/metrics).
uint64_t jitCacheHits();

/// Installs the shim entry points and the owning machine into \p RT.
void initJitRuntime(JitRT &RT, Machine *M);

} // namespace rpcc

#endif // RPCC_JIT_JIT_H
