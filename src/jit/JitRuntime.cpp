//===- jit/JitRuntime.cpp - Shims between emitted code and the Machine ----===//
//
// Everything with observable semantics goes through here: memory access,
// div/rem guards, fpToIntSat, calls, profiling, budget faults, and the
// settle of a counting segment cut by a fault. Each shim is a thin
// extern "C" wrapper over the exact Machine service both interpreter
// engines use, so fault messages and counting stay byte-identical by
// construction. The call shims are also where the counter hand-off
// happens: Counters.Total crosses from JitRT::TotalCell into the Machine
// before the callee runs and back after, mirroring the fast path's
// flush/reload pair around calls.
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
  static std::vector<uint64_t> &argArena(Machine &M) { return M.ArgArena; }
  static std::vector<uint64_t> &regArena(Machine &M) { return M.RegArena; }
  static std::vector<uint8_t> &stackMem(Machine &M) { return M.StackMem; }
  static std::vector<uint8_t> &heapMem(Machine &M) { return M.HeapMem; }
  static const DecodedModule &dm(const Machine &M) { return *M.DM; }
  static size_t numFunctions(const Machine &M) { return M.M.numFunctions(); }
  static uint64_t call(Machine &M, FuncId F, size_t ArgBase, size_t NArgs) {
    return M.callDecodedDyn(F, ArgBase, NArgs);
  }
  static size_t &callDepth(Machine &M) { return M.CallDepth; }
  static const InterpOptions &opts(const Machine &M) { return M.Opts; }
  static bool profiled(const Machine &M) { return M.Prof != nullptr; }
  static JitProgram *jp(Machine &M) { return M.JP.get(); }
  static bool frameBudget(Machine &M, size_t FrameSize) {
    return M.checkFrameBudget(FrameSize);
  }
  static bool deadline(Machine &M) { return M.checkWallDeadline(); }
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
/// frames), and the callee may have faulted.
void syncAfterCall(JitRT *RT, Machine &M) {
  RT->TotalCell = JitBridge::counters(M).Total;
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
/// already compiled, and profiling is off, the frame is built right here —
/// arguments copy straight from the caller's register window into the
/// callee's, skipping the ArgArena staging the generic path needs, and the
/// step counter never leaves JitRT::TotalCell (every consumer on this path
/// reads the cell; Machine::Counters.Total is resynchronized by whichever
/// boundary next needs it — the generic call shim on the way into a
/// builtin/declined/uncompiled callee, or the top-level execJit on return).
/// The guard order — pending fault, depth, frame budget, deadline — is
/// exactly callDecoded + execJit's, so every fault lands at the same
/// counting point with the same message. Returns false to route the call
/// through the generic path (which also performs lazy compilation).
bool jitCallFast(JitRT *RT, uint64_t Callee, uint64_t ArgPoolOff,
                 uint64_t NArgs, const uint64_t *R, uint64_t *Out) {
  Machine &M = *RT->M;
  const DecodedFunction &DF = JitBridge::dm(M).Funcs[Callee];
  JitProgram *JP = JitBridge::jp(M);
  JitProgram::Entry E;
  if (!DF.HasBody || JitBridge::profiled(M) ||
      !(E = JP->entry(static_cast<FuncId>(Callee))))
    return false;
  if (JitBridge::err(M).Active) { // unreachable from emitted code, but the
    *Out = 0;                     // generic path guards it, so mirror it
    RT->FaultCell = 1;
    return true;
  }
  if (++JitBridge::callDepth(M) > JitBridge::opts(M).MaxCallDepth) {
    JitBridge::err(M).raise("call depth limit exceeded (runaway recursion?)");
    --JitBridge::callDepth(M);
    RT->FaultCell = 1;
    *Out = 0;
    return true;
  }
  if (JitBridge::frameBudget(M, DF.FrameSize) || JitBridge::deadline(M)) {
    --JitBridge::callDepth(M);
    RT->FaultCell = 1;
    *Out = 0;
    return true;
  }
  std::vector<uint8_t> &SM = JitBridge::stackMem(M);
  std::vector<uint64_t> &RA = JitBridge::regArena(M);
  const size_t FrameOff = SM.size();
  SM.resize(FrameOff + DF.FrameSize, 0);
  // The caller's window survives as an index: growing RegArena may move it.
  const size_t CallerBase = static_cast<size_t>(R - RA.data());
  const size_t RegBase = RA.size();
  RA.resize(RegBase + DF.NumRegs, 0);
  const Reg *ArgRegs =
      JitBridge::dm(M).Funcs[RT->CurFn].ArgPool.data() + ArgPoolOff;
  {
    uint64_t *Dst = RA.data() + RegBase;
    const uint64_t *Src = RA.data() + CallerBase;
    const size_t NParams = DF.ParamRegs.size();
    for (size_t I = 0; I != NArgs && I != NParams; ++I)
      Dst[DF.ParamRegs[I]] = Src[ArgRegs[I]];
  }
  RT->RegArenaData = RA.data();
  RT->StackData = SM.data();
  RT->StackSize = SM.size();
  const uint64_t V = E(RT, RegBase, FrameOff);
  // Shrinking never reallocates, so the data cells stay valid; only the
  // stack bound and the fault flag (the callee may have raised through a
  // stub, which bypasses syncAfterCall) need refreshing. The heap cells
  // are current: every path that can move the heap runs syncAfterCall.
  SM.resize(FrameOff);
  RA.resize(RegBase);
  RT->StackSize = FrameOff;
  RT->FaultCell = JitBridge::err(M).Active;
  --JitBridge::callDepth(M);
  *Out = V;
  return true;
}

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
  std::vector<uint64_t> &AA = JitBridge::argArena(M);
  const size_t AB = AA.size();
  AA.resize(AB + NArgs);
  for (uint64_t I = 0; I != NArgs; ++I)
    AA[AB + I] = R[ArgRegs[I]];
  uint64_t V = JitBridge::call(M, static_cast<FuncId>(Callee), AB,
                               static_cast<size_t>(NArgs));
  AA.resize(AB);
  syncAfterCall(RT, M);
  return V;
}

extern "C" uint64_t rpccJitCallInd(JitRT *RT, uint64_t Target,
                                   uint64_t ArgPoolOff, uint64_t NArgs,
                                   const uint64_t *R) {
  Machine &M = *RT->M;
  JitBridge::counters(M).Total = RT->TotalCell;
  if (Target < InterpFuncBase ||
      (Target & ~InterpFuncBase) >= JitBridge::numFunctions(M)) {
    JitBridge::err(M).raise("indirect call through a non-function value");
    RT->FaultCell = 1;
    return 0;
  }
  uint64_t Out;
  if (jitCallFast(RT, Target & ~InterpFuncBase, ArgPoolOff, NArgs, R, &Out))
    return Out;
  const Reg *ArgRegs =
      JitBridge::dm(M).Funcs[RT->CurFn].ArgPool.data() + ArgPoolOff;
  std::vector<uint64_t> &AA = JitBridge::argArena(M);
  const size_t AB = AA.size();
  AA.resize(AB + NArgs);
  for (uint64_t I = 0; I != NArgs; ++I)
    AA[AB + I] = R[ArgRegs[I]];
  uint64_t V = JitBridge::call(M, static_cast<FuncId>(Target & ~InterpFuncBase),
                               AB, static_cast<size_t>(NArgs));
  AA.resize(AB);
  syncAfterCall(RT, M);
  return V;
}

extern "C" uint64_t rpccJitDeadline(JitRT *RT) {
  return JitBridge::deadline(*RT->M);
}

extern "C" void rpccJitStepLimit(JitRT *RT) {
  JitBridge::err(*RT->M).raise("step limit exceeded (infinite loop?)");
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
  RT.HelpDeadline = reinterpret_cast<const void *>(&rpccJitDeadline);
  RT.HelpStepLimit = reinterpret_cast<const void *>(&rpccJitStepLimit);
  RT.HelpFault = reinterpret_cast<const void *>(&rpccJitFault);
  RT.HelpProfile = reinterpret_cast<const void *>(&rpccJitProfile);
  RT.HelpFlushCounters = reinterpret_cast<const void *>(&rpccJitFlushCounters);
}
