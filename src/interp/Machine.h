//===- interp/Machine.h - Shared interpreter machine state ------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the Machine owns all execution state shared by the two
/// engines — simulated memory, counters, profiler state, the fault record.
/// Interpreter.cpp implements the shared services plus the reference switch
/// engine; FastEngine.cpp implements the pre-decoded fast path. Both must
/// stay observationally identical (the parity suite asserts it).
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_INTERP_MACHINE_H
#define RPCC_INTERP_MACHINE_H

#include "interp/Decode.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

namespace rpcc {

/// Sticky fault record; the first fault wins and unwinds execution through
/// checked returns (the library builds without exceptions).
struct InterpFault {
  bool Active = false;
  std::string Message;
  void raise(const std::string &Msg) {
    if (Active)
      return;
    Active = true;
    Message = Msg;
  }
};

class Machine {
public:
  Machine(const Module &M, const InterpOptions &Opts)
      : M(M), Opts(Opts), Prof(Opts.Profile) {}

  ExecResult run();

private:
  // -- Shared services (Interpreter.cpp) --------------------------------------
  uint8_t *decodeAddr(uint64_t Addr, size_t Len);
  uint64_t loadMem(uint64_t Addr, MemType T);
  void storeMem(uint64_t Addr, MemType T, uint64_t V);
  /// Maps a runtime address back to the tag that owns it (profiler only).
  TagId resolveAddress(uint64_t Addr) const;
  uint64_t callBuiltin(BuiltinKind K, const uint64_t *Args, size_t N);
  void appendOutput(const std::string &S);

  // -- Reference switch engine (Interpreter.cpp) ------------------------------
  uint64_t tagAddress(TagId T, uint64_t FrameBase);
  void profileMemOp(const Function &F, BlockId BB, const Instruction &I,
                    const std::vector<uint64_t> &Regs);
  uint64_t callFunction(FuncId FId, const std::vector<uint64_t> &Args);
  uint64_t executeBody(const Function &F, const std::vector<uint64_t> &Args);

  // -- Pre-decoded fast path (FastEngine.cpp) ---------------------------------
  /// Runs main on the decoded module (the fast path, or the jit when JP is
  /// set), then expands the segment hits into the counters.
  uint64_t runDecoded(FuncId Main);
  template <bool Profiled>
  uint64_t callDecoded(FuncId FId, size_t ArgBase, size_t NArgs);
  template <bool Profiled>
  uint64_t execDecoded(const DecodedFunction &DF, size_t ArgBase,
                       size_t NArgs);
  void profileDecoded(const DecodedInst &DI, uint32_t BaseSlot,
                      const uint64_t *Regs);
  /// Adds \p N executions of slot \p DI of function \p F to the counters.
  void countSlot(const DecodedInst &DI, FuncId F, uint64_t N);
  /// The settle routine both fast engines share: counts the executed
  /// prefix of the segment a fault cut, from its first slot up to slot
  /// \p At, including \p At itself when \p Include (the faulting step was
  /// counted by the reference engine's prologue).
  void settleSegment(const DecodedFunction &DF, uint32_t At, bool Include);

  // -- Native JIT engine (FastEngine.cpp frame shim + src/jit) ----------------
  /// Frame setup/teardown around one native activation; the exact mirror of
  /// execDecoded so budgets, profiling frames, and arena discipline match.
  template <bool Profiled>
  uint64_t execJit(JitProgram::Entry E, const DecodedFunction &DF,
                   size_t ArgBase, size_t NArgs);
  /// Non-template callDecoded for the call shims (the template bodies live
  /// in FastEngine.cpp and are not visible to other TUs).
  uint64_t callDecodedDyn(FuncId FId, size_t ArgBase, size_t NArgs);
  friend struct JitBridge;

  // -- Resource budgets --------------------------------------------------------
  static double wallNowMs() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
  }
  /// True (and raises the fault) when InterpOptions::WallDeadlineMs has
  /// elapsed. Both engines call this at the same Counters.Total check
  /// points — entry to every frame plus every 64K executed operations — so
  /// they fault with the same message at the same cadence.
  bool checkWallDeadline() {
    if (!DeadlineAbsMs || wallNowMs() <= DeadlineAbsMs)
      return false;
    Err.raise("wall-clock deadline exceeded (execution budget elapsed)");
    return true;
  }
  /// Raises the frame-memory fault when growing the simulated stack by
  /// \p FrameSize would blow InterpOptions::MaxFrameBytes. Checked at frame
  /// entry, before any callee step executes, so it is counting-exact.
  bool checkFrameBudget(size_t FrameSize) {
    if (StackMem.size() + FrameSize <= Opts.MaxFrameBytes)
      return false;
    Err.raise("frame memory limit exceeded (runaway recursion?)");
    return true;
  }

  // -- Value helpers -----------------------------------------------------------
  static double asF(uint64_t V) {
    double D;
    std::memcpy(&D, &V, 8);
    return D;
  }
  static uint64_t fromF(double D) {
    uint64_t V;
    std::memcpy(&V, &D, 8);
    return V;
  }
  static int64_t asI(uint64_t V) { return static_cast<int64_t>(V); }

  // -- State -------------------------------------------------------------------
  const Module &M;
  const InterpOptions &Opts;
  const ProfileMeta *Prof;
  InterpFault Err;
  OpCounters Counters;
  std::vector<FunctionCounters> PerFunc;
  std::string Output;

  std::vector<uint8_t> GlobalMem, StackMem, HeapMem;
  /// TagId-indexed global addresses (GlobalLayout::NoAddr when unallocated).
  std::vector<uint64_t> GlobalAddr;
  /// FuncId-indexed frame layouts, precomputed before execution starts.
  std::vector<FrameLayout> Layouts;
  const FrameLayout *CurLayout = nullptr;
  size_t CallDepth = 0;
  /// Absolute wallNowMs() deadline; 0 when WallDeadlineMs is unset.
  double DeadlineAbsMs = 0;

  /// Ascending (address, tag) intervals of the global segment.
  std::vector<std::pair<uint64_t, TagId>> GlobalSpans;
  /// Live frames with nonzero layouts, ascending bases (profiler only).
  std::vector<std::pair<uint64_t, FuncId>> FrameStack;
  DenseProfileSink Sink;

  /// Fast engines only: the decoded program plus frame-free register/argument
  /// arenas (grown and shrunk per call, never hashed), and one hit counter
  /// per counting segment (sized before execution, never resized).
  const DecodedModule *DM = nullptr;
  std::vector<uint64_t> RegArena, ArgArena;
  std::vector<uint64_t> SegHits;

  /// Jit engine only: the (possibly cache-shared) compiled program — null
  /// entries compile lazily on first call, declines fall back to the fast
  /// path per function — plus the cell block shared with emitted code and
  /// the wall microseconds this run actually spent emitting.
  std::shared_ptr<JitProgram> JP;
  JitRT RT;
  uint64_t JitCompileUs = 0;
};

} // namespace rpcc

#endif // RPCC_INTERP_MACHINE_H
