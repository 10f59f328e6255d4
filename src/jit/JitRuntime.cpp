//===- jit/JitRuntime.cpp - Shims between emitted code and the Machine ----===//
//
// Everything with observable semantics goes through here: memory access,
// div/rem guards, fpToIntSat, calls, profiling, budget faults, and the
// settle of a counting segment cut by a fault. Each shim is a thin
// extern "C" wrapper over the exact Machine service the interpreter
// engines use — the address decoder, the frame routine, the cold step
// check — so fault messages and counting stay byte-identical by
// construction. The generic call shim is also where the counter hand-off
// happens: Counters.Total crosses from JitRT::TotalCell into the Machine
// before a C++ callee runs and back after, mirroring the fast path's
// flush/reload pair around its C++ calls.
//
// Because compiled code is shared across Machines through the code cache,
// the shims take DecodedFunction-relative operands (argument-pool offsets,
// fault-message indices) instead of baked pointers and resolve them through
// JitRT::CurFn against the running Machine's decoded module.
//
// JitBridge is the single friend seam into Machine; keep all private access
// in it so the surface stays auditable.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "interp/Machine.h"
#include "support/Arith.h"

using namespace rpcc;

namespace rpcc {

struct JitBridge {
  static uint64_t load(Machine &M, uint64_t Addr, MemType T) {
    return M.loadMem(Addr, T);
  }
  static void store(Machine &M, uint64_t Addr, MemType T, uint64_t V) {
    M.storeMem(Addr, T, V);
  }
  static InterpFault &err(Machine &M) { return M.Err; }
  static OpCounters &counters(Machine &M) { return M.Counters; }
  static FrameArena<uint64_t> &regArena(Machine &M) { return M.RegArena; }
  static FrameArena<uint8_t> &stackMem(Machine &M) { return M.StackMem; }
  static std::vector<uint8_t> &heapMem(Machine &M) { return M.HeapMem; }
  static const DecodedModule &dm(const Machine &M) { return *M.DM; }
  static size_t numFunctions(const Machine &M) { return M.M.numFunctions(); }
  static uint64_t call(Machine &M, FuncId F, size_t CallerBase,
                       const Reg *ArgRegs, size_t NArgs) {
    return M.callDecodedDyn(F, CallerBase, ArgRegs, NArgs);
  }
  static bool profiled(const Machine &M) { return M.Prof != nullptr; }
  static JitProgram *jp(Machine &M) { return M.JP.get(); }
  using Frame = Machine::Frame;
  static bool enterFrame(Machine &M, const DecodedFunction &DF,
                         size_t CallerBase, const Reg *ArgRegs, size_t NArgs,
                         Frame &F) {
    return M.enterFrame(DF, CallerBase, ArgRegs, NArgs, F);
  }
  static void leaveFrame(Machine &M, const DecodedFunction &DF,
                         const Frame &F) {
    M.leaveFrame(DF, F);
  }
  static uint64_t stepStop(const Machine &M, uint64_t Total) {
    return M.stepStop(Total);
  }
  static uint64_t stepSlow(Machine &M, uint64_t Total) {
    return M.stepSlow(Total);
  }
  static void settle(Machine &M, FuncId F, uint32_t At) {
    M.settleSegment(M.DM->Funcs[F], At, /*Include=*/true);
  }
  static void profile(Machine &M, size_t Slot, uint64_t Flags, uint64_t Addr) {
    if (Flags & DIFlagPtrProf) {
      TagId T = M.resolveAddress(Addr);
      if (T != NoTag)
        Slot += size_t(T) + 1;
    }
    if (Flags & DIFlagStore)
      M.Sink.countStore(Slot);
    else
      M.Sink.countLoad(Slot);
  }
};

} // namespace rpcc

namespace {

/// Two-register return (rax:rdx under the SysV ABI): the value and a
/// did-it-fault flag the emitted code branches on.
struct JitPair {
  uint64_t Val;
  uint64_t Fault;
};

/// Refreshes the cells the emitted code rebases from after a call: the
/// arenas and the heap/stack segments may have reallocated (malloc, callee
/// frames), the callee may have faulted, and C++ frames advanced Total
/// without moving the Stop cell.
void syncAfterCall(JitRT *RT, Machine &M) {
  RT->TotalCell = JitBridge::counters(M).Total;
  RT->StopCell = JitBridge::stepStop(M, RT->TotalCell);
  RT->RegArenaData = JitBridge::regArena(M).data();
  RT->StackData = JitBridge::stackMem(M).data();
  RT->HeapData = JitBridge::heapMem(M).data();
  RT->HeapSize = JitBridge::heapMem(M).size();
  RT->StackSize = JitBridge::stackMem(M).size();
  RT->FaultCell = JitBridge::err(M).Active;
}

extern "C" JitPair rpccJitLoad(JitRT *RT, uint64_t Addr, uint64_t MemTy) {
  Machine &M = *RT->M;
  uint64_t V = JitBridge::load(M, Addr, static_cast<MemType>(MemTy));
  return {V, JitBridge::err(M).Active};
}

extern "C" uint64_t rpccJitStore(JitRT *RT, uint64_t Addr, uint64_t V,
                                 uint64_t MemTy) {
  Machine &M = *RT->M;
  JitBridge::store(M, Addr, static_cast<MemType>(MemTy), V);
  return JitBridge::err(M).Active;
}

extern "C" JitPair rpccJitDiv(JitRT *RT, uint64_t A, uint64_t B) {
  int64_t N = static_cast<int64_t>(A), D = static_cast<int64_t>(B);
  if (divFaults(N, D)) {
    JitBridge::err(*RT->M).raise(D == 0
                                     ? "integer division by zero"
                                     : "integer division overflow "
                                       "(INT64_MIN / -1)");
    return {0, 1};
  }
  return {static_cast<uint64_t>(sdiv(N, D)), 0};
}

extern "C" JitPair rpccJitRem(JitRT *RT, uint64_t A, uint64_t B) {
  int64_t N = static_cast<int64_t>(A), D = static_cast<int64_t>(B);
  if (D == 0) {
    JitBridge::err(*RT->M).raise("integer remainder by zero");
    return {0, 1};
  }
  return {static_cast<uint64_t>(srem(N, D)), 0};
}

extern "C" uint64_t rpccJitFpToInt(double V) {
  return static_cast<uint64_t>(fpToIntSat(V));
}

/// Direct native-to-native invocation: when the callee has a body, is
/// already compiled, and profiling is off, the frame comes straight from
/// the Machine's frame routine — the guards in the interpreters' order,
/// then arguments copied from the caller's register window into the
/// callee's — and the step counter never leaves JitRT::TotalCell (every
/// consumer on this path reads the cell; Machine::Counters.Total is
/// resynchronized by whichever boundary next needs it — the generic call
/// shim on the way into a builtin/declined/uncompiled callee, or runJit on
/// return). Returns false to route the call through the generic path
/// (which also performs lazy compilation).
bool jitCallFast(JitRT *RT, uint64_t Callee, uint64_t ArgPoolOff,
                 uint64_t NArgs, const uint64_t *R, uint64_t *Out) {
  Machine &M = *RT->M;
  const DecodedFunction &DF = JitBridge::dm(M).Funcs[Callee];
  JitProgram *JP = JitBridge::jp(M);
  JitProgram::Entry E;
  if (!DF.HasBody || JitBridge::profiled(M) ||
      !(E = JP->entry(static_cast<FuncId>(Callee))))
    return false;
  FrameArena<uint64_t> &RA = JitBridge::regArena(M);
  const Reg *ArgRegs =
      JitBridge::dm(M).Funcs[RT->CurFn].ArgPool.data() + ArgPoolOff;
  JitBridge::Frame F;
  *Out = 0;
  if (!JitBridge::enterFrame(M, DF, static_cast<size_t>(R - RA.data()),
                             ArgRegs, NArgs, F)) {
    RT->FaultCell = 1;
    return true;
  }
  FrameArena<uint8_t> &SM = JitBridge::stackMem(M);
  RT->RegArenaData = RA.data();
  RT->StackData = SM.data();
  RT->StackSize = SM.size();
  *Out = E(RT, F.RegBase, F.FrameOff);
  // Popping never reallocates, so the data cells stay valid; only the
  // stack bound and the fault flag (the callee may have raised through a
  // stub, which bypasses syncAfterCall) need refreshing. The heap cells
  // are current: every path that can move the heap runs syncAfterCall.
  JitBridge::leaveFrame(M, DF, F);
  RT->StackSize = F.FrameOff;
  RT->FaultCell = JitBridge::err(M).Active;
  return true;
}

/// Native calls: the direct path when it applies, else the generic one —
/// Total crosses back into the Machine, callDecoded runs the callee
/// (builtin, fast-path body, or a jit entry compiled on demand) with the
/// arguments read from the caller's register window, and the cells are
/// refreshed.
extern "C" uint64_t rpccJitCall(JitRT *RT, uint64_t Callee,
                                uint64_t ArgPoolOff, uint64_t NArgs,
                                const uint64_t *R) {
  uint64_t Out;
  if (jitCallFast(RT, Callee, ArgPoolOff, NArgs, R, &Out))
    return Out;
  Machine &M = *RT->M;
  JitBridge::counters(M).Total = RT->TotalCell;
  const Reg *ArgRegs =
      JitBridge::dm(M).Funcs[RT->CurFn].ArgPool.data() + ArgPoolOff;
  const size_t CallerBase =
      static_cast<size_t>(R - JitBridge::regArena(M).data());
  const uint64_t V = JitBridge::call(M, static_cast<FuncId>(Callee),
                                     CallerBase, ArgRegs,
                                     static_cast<size_t>(NArgs));
  syncAfterCall(RT, M);
  return V;
}

extern "C" uint64_t rpccJitCallInd(JitRT *RT, uint64_t Target,
                                   uint64_t ArgPoolOff, uint64_t NArgs,
                                   const uint64_t *R) {
  if (Target < InterpFuncBase ||
      (Target & ~InterpFuncBase) >= JitBridge::numFunctions(*RT->M)) {
    JitBridge::err(*RT->M).raise("indirect call through a non-function value");
    RT->FaultCell = 1;
    return 0;
  }
  return rpccJitCall(RT, Target & ~InterpFuncBase, ArgPoolOff, NArgs, R);
}

/// The step stub's shim: the fast path's cold step check on Total \p T.
/// Returns nonzero after raising a step-limit or deadline fault; otherwise
/// moves the Stop cell on.
extern "C" uint64_t rpccJitStepSlow(JitRT *RT, uint64_t T) {
  const uint64_t Stop = JitBridge::stepSlow(*RT->M, T);
  if (!Stop)
    return 1;
  RT->StopCell = Stop;
  return 0;
}

extern "C" void rpccJitFault(JitRT *RT, uint64_t MsgIdx) {
  Machine &M = *RT->M;
  JitBridge::err(M).raise(JitBridge::dm(M).Funcs[RT->CurFn].FaultMsgs[MsgIdx]);
}

extern "C" void rpccJitProfile(JitRT *RT, uint64_t Slot, uint64_t Flags,
                               uint64_t Addr) {
  JitBridge::profile(*RT->M, static_cast<size_t>(Slot), Flags, Addr);
}

/// Settles the counting segment a fault cut: counts its first \p Count
/// steps from JitRT::BlockFirst of the current function. The faulting
/// step's inclusion is the caller's business (the emitted fault stubs pass
/// Total - BlockSnap for prologue-complete faults and one less for limit
/// faults), which is what keeps ByOpcode and the Figure 6/7 tallies
/// step-exact across all fault kinds. Total itself is not touched here —
/// r12 stays authoritative until the epilogue.
extern "C" void rpccJitFlushCounters(JitRT *RT, uint64_t Count) {
  if (Count)
    JitBridge::settle(*RT->M, static_cast<FuncId>(RT->CurFn),
                      static_cast<uint32_t>(RT->BlockFirst + Count - 1));
}

} // namespace

void rpcc::initJitRuntime(JitRT &RT, Machine *M) {
  RT.M = M;
  RT.HelpLoad = reinterpret_cast<const void *>(&rpccJitLoad);
  RT.HelpStore = reinterpret_cast<const void *>(&rpccJitStore);
  RT.HelpDiv = reinterpret_cast<const void *>(&rpccJitDiv);
  RT.HelpRem = reinterpret_cast<const void *>(&rpccJitRem);
  RT.HelpFpToInt = reinterpret_cast<const void *>(&rpccJitFpToInt);
  RT.HelpCall = reinterpret_cast<const void *>(&rpccJitCall);
  RT.HelpCallInd = reinterpret_cast<const void *>(&rpccJitCallInd);
  RT.HelpStepSlow = reinterpret_cast<const void *>(&rpccJitStepSlow);
  RT.HelpFault = reinterpret_cast<const void *>(&rpccJitFault);
  RT.HelpProfile = reinterpret_cast<const void *>(&rpccJitProfile);
  RT.HelpFlushCounters = reinterpret_cast<const void *>(&rpccJitFlushCounters);
}
