//===- interp/Machine.h - Shared interpreter machine state ------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the Machine owns all execution state shared by the
/// three engines — simulated memory, counters, profiler state, the fault
/// record. Interpreter.cpp implements the shared services plus the
/// reference switch engine; FastEngine.cpp implements the pre-decoded fast
/// path and the frame shim the jit (src/jit) enters through. All three must
/// stay observationally identical (the parity suite asserts it).
///
/// Three mechanisms here are each the only copy of their kind:
///  * decodeAddr, the address decoder every load and store of every engine
///    goes through (the jit's inline checks fall back to it): inline range
///    tests, with only the fault raise out of line;
///  * stepStop/stepSlow, the single-compare step rule of both fast engines;
///  * enterFrame/leaveFrame, the frame routine behind every decoded or
///    native activation: callDecoded and the jit's native-to-native calls.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_INTERP_MACHINE_H
#define RPCC_INTERP_MACHINE_H

#include "interp/Decode.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"

#include <algorithm>
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

/// A stack of zero-filled slices over one growable buffer, for the frames'
/// registers and stack bytes: push and pop move Top, and only growth past
/// the buffer reallocates (growing a std::vector runs an out-of-line insert
/// on every call). size() and data() read like the vector's.
template <typename T> struct FrameArena {
  std::vector<T> Buf;
  size_t Top = 0;

  size_t size() const { return Top; }
  T *data() { return Buf.data(); }
  /// Appends \p N zeroed elements; returns the index of the first.
  size_t push(size_t N) {
    const size_t Base = Top;
    Top += N;
    if (Top > Buf.size())
      grow();
    std::fill_n(Buf.data() + Base, N, T(0));
    return Base;
  }
  void pop(size_t Base) { Top = Base; }
  [[gnu::noinline]] void grow() { Buf.resize(std::max(Top, 2 * Buf.size())); }
};

class Machine {
public:
  Machine(const Module &M, const InterpOptions &Opts)
      : M(M), Opts(Opts), Prof(Opts.Profile) {}

  ExecResult run();

private:
  // -- Shared services (Interpreter.cpp) --------------------------------------
  /// The one address decoder of all three engines: sets \p P to the host
  /// pointer of the \p Len bytes at simulated address \p Addr, or raises
  /// the fault and returns false. Inline range tests against the global,
  /// stack and heap segments; a miss in all three is always a fault, and
  /// only raising it stays out of line. The segments cannot overlap (their
  /// sizes are bounded far below the gaps between the bases), so testing
  /// them in any order finds the segment the switch engine's classification
  /// would.
  bool decodeAddr(uint64_t Addr, size_t Len, uint8_t *&P) {
    if (inSegment(GlobalMem, Addr - InterpGlobalBase, Len, P) ||
        inSegment(StackMem, Addr - InterpStackBase, Len, P) ||
        inSegment(HeapMem, Addr - InterpHeapBase, Len, P))
      return true;
    addrFault(Addr);
    return false;
  }
  /// decodeAddr for the baked addresses of *Abs ops, which can only lie in
  /// the global segment or the function range: one range test.
  bool globalAddr(uint64_t Addr, size_t Len, uint8_t *&P) {
    if (inSegment(GlobalMem, Addr - InterpGlobalBase, Len, P))
      return true;
    addrFault(Addr);
    return false;
  }
  /// decodeAddr for *Frame ops, whose addresses lie in the stack segment.
  bool stackAddr(uint64_t Addr, size_t Len, uint8_t *&P) {
    if (inSegment(StackMem, Addr - InterpStackBase, Len, P))
      return true;
    addrFault(Addr);
    return false;
  }
  /// True, with \p P set, when \p Len bytes at \p Off fit in \p Seg.
  /// Testing `Off < size` first keeps `size - Off` from wrapping.
  template <typename Segment>
  static bool inSegment(Segment &Seg, uint64_t Off, size_t Len, uint8_t *&P) {
    const size_t Size = Seg.size();
    if (Off >= Size || Len > Size - Off)
      return false;
    P = Seg.data() + Off;
    return true;
  }
  /// Raises the fault of an access no segment holds.
  void addrFault(uint64_t Addr);
  static uint64_t readMem(const uint8_t *P, MemType T) {
    if (T == MemType::I8)
      return *P;
    uint64_t V;
    std::memcpy(&V, P, 8);
    return V;
  }
  static void writeMem(uint8_t *P, MemType T, uint64_t V) {
    if (T == MemType::I8)
      *P = static_cast<uint8_t>(V);
    else
      std::memcpy(P, &V, 8);
  }
  uint64_t loadMem(uint64_t Addr, MemType T) {
    uint8_t *P;
    return decodeAddr(Addr, memTypeSize(T), P) ? readMem(P, T) : 0;
  }
  void storeMem(uint64_t Addr, MemType T, uint64_t V) {
    uint8_t *P;
    if (decodeAddr(Addr, memTypeSize(T), P))
      writeMem(P, T, V);
  }
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

  // -- The step rule of both fast engines --------------------------------------
  /// Each step runs one compare, `++Total >= Stop`. Stop is the first
  /// Total at which the reference engine's per-step checks can fire: the
  /// smaller of MaxSteps + 1 and the next multiple of 65,536 (the deadline
  /// poll) above \p Total. Total only grows, so a Stop computed from an
  /// older Total can be too low, costing one extra stepSlow call, but never
  /// too high.
  uint64_t stepStop(uint64_t Total) const {
    const uint64_t Poll = (Total | 0xFFFF) + 1;
    return Opts.MaxSteps < Poll ? Opts.MaxSteps + 1 : Poll;
  }
  /// The cold side of the compare: the step-limit check, then the deadline
  /// poll, exactly as the switch engine runs them on step \p Total.
  /// Returns the next Stop, or 0 after raising the fault.
  uint64_t stepSlow(uint64_t Total);

  // -- Frames of the fast engines (FastEngine.cpp) ----------------------------
  /// One activation: its slice of RegArena and its byte offset in StackMem.
  struct Frame {
    size_t RegBase = 0;
    size_t FrameOff = 0;
  };
  /// The one frame routine of the fast engines, shared by callDecoded
  /// (which serves execDecoded and the jit's runJit) and the jit's
  /// native-to-native calls. Runs the guards in the switch engine's order
  /// (pending fault, call depth, frame budget, deadline), then pushes the
  /// stack and register arenas and the profiling frame, and copies the
  /// arguments from the caller's register window at \p CallerBase
  /// (registers \p ArgRegs). Returns false, with no frame built, when a
  /// guard faults.
  bool enterFrame(const DecodedFunction &DF, size_t CallerBase,
                  const Reg *ArgRegs, size_t NArgs, Frame &F) {
    if ((Err.Active || CallDepth >= Opts.MaxCallDepth ||
         StackMem.size() + DF.FrameSize > Opts.MaxFrameBytes ||
         DeadlineAbsMs) &&
        frameGuardFaults(DF.FrameSize))
      return false;
    ++CallDepth;
    F.FrameOff = StackMem.push(DF.FrameSize);
    // Zero-sized frames own no stack bytes: keeping them off the frame
    // stack keeps its bases strictly increasing for binary search.
    if (Prof && DF.FrameSize)
      FrameStack.push_back({InterpStackBase + F.FrameOff, DF.Id});
    F.RegBase = RegArena.push(DF.NumRegs);
    uint64_t *Regs = RegArena.data() + F.RegBase;
    const uint64_t *Caller = RegArena.data() + CallerBase;
    const size_t NParams = DF.ParamRegs.size();
    for (size_t I = 0; I != NArgs && I != NParams; ++I)
      Regs[DF.ParamRegs[I]] = Caller[ArgRegs[I]];
    return true;
  }
  void leaveFrame(const DecodedFunction &DF, const Frame &F) {
    if (Prof && DF.FrameSize)
      FrameStack.pop_back();
    StackMem.pop(F.FrameOff);
    RegArena.pop(F.RegBase);
    --CallDepth;
  }
  /// The guards of a call to a builtin: a pending fault, then the call
  /// depth. True when one faults.
  bool callGuardFaults();
  /// enterFrame's guards in order, out of line; true when one faults.
  bool frameGuardFaults(size_t FrameSize);

  // -- Pre-decoded fast path (FastEngine.cpp) ---------------------------------
  /// Runs main on the decoded module (the fast path, or the jit when JP is
  /// set), then expands the segment hits into the counters.
  uint64_t runDecoded(FuncId Main);
  /// One call: a builtin, or a decoded body run by the jit or the fast
  /// path. The arguments are registers \p ArgRegs of the caller's window
  /// at \p CallerBase.
  template <bool Profiled>
  uint64_t callDecoded(FuncId FId, size_t CallerBase, const Reg *ArgRegs,
                       size_t NArgs);
  /// The dispatch loop over the built frame \p F of \p DF.
  template <bool Profiled>
  uint64_t execDecoded(const DecodedFunction &DF, const Frame &F);
  void profileDecoded(const DecodedInst &DI, uint32_t BaseSlot,
                      const uint64_t *Regs);
  /// Adds \p N executions of slot \p DI of function \p F to the counters.
  void countSlot(const DecodedInst &DI, FuncId F, uint64_t N);
  /// The settle routine both fast engines share: counts the executed
  /// prefix of the segment a fault cut, from its first slot up to slot
  /// \p At, including \p At itself when \p Include (the faulting step was
  /// counted by the reference engine's prologue).
  void settleSegment(const DecodedFunction &DF, uint32_t At, bool Include);

  // -- Native JIT engine (FastEngine.cpp + src/jit) ---------------------------
  /// Runs the native entry \p E on the built frame \p F: hands the step
  /// counter and the arena bases to the JitRT cells and takes Total back.
  uint64_t runJit(JitProgram::Entry E, const Frame &F);
  /// Non-template callDecoded for the call shims (the template bodies live
  /// in FastEngine.cpp and are not visible to other TUs).
  uint64_t callDecodedDyn(FuncId FId, size_t CallerBase, const Reg *ArgRegs,
                          size_t NArgs);
  friend struct JitBridge;

  // -- Resource budgets --------------------------------------------------------
  static double wallNowMs() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
  }
  /// True (and raises the fault) when InterpOptions::WallDeadlineMs has
  /// elapsed. Every engine calls this at the same Counters.Total check
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

  std::vector<uint8_t> GlobalMem, HeapMem;
  /// The simulated stack: size() is the live extent stack accesses are
  /// checked against.
  FrameArena<uint8_t> StackMem;
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

  /// Fast engines only: the decoded program, the frame-free register arena
  /// (pushed and popped per call, never hashed), and one hit counter per
  /// counting segment (sized before execution, never resized).
  const DecodedModule *DM = nullptr;
  FrameArena<uint64_t> RegArena;
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
