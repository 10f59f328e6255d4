//===- interp/FastEngine.cpp - Pre-decoded fast-path engine ---------------===//
//
// The tight dispatch loop over the decoded instruction stream. Every
// counter, profile, output byte, fault message, and exit code must be
// bit-identical to the reference switch engine's. Per step the loop runs
// one compare, `++Total >= Stop` (Machine::stepStop): only reaching Stop
// takes the step-limit check and the 64K wall-deadline poll, then the
// profile attribution when profiling, then the operation. The per-opcode,
// load/store and per-function counts come from one hit counter per
// counting segment (Decode.h): each closing instruction bumps its
// segment's counter, runDecoded expands the hits once after the run, and a
// fault inside a segment settles the executed prefix of that segment
// through settleSegment, the routine the jit's fault stubs share.
//
// Loads and stores test the segments inline (Machine::decodeAddr). A call
// enters its callee through callDecoded, whose frame comes from
// Machine::enterFrame, the frame routine the jit shares.
//
//===----------------------------------------------------------------------===//

#include "interp/Machine.h"

#include "support/Arith.h"

#include <cassert>

using namespace rpcc;

// Feature macro for the dispatch strategy: computed goto on compilers that
// support labels-as-values (GCC/Clang), otherwise a portable switch over the
// same handler bodies. Define RPCC_INTERP_THREADED=0 to force the switch.
#ifndef RPCC_INTERP_THREADED
#if defined(__GNUC__) || defined(__clang__)
#define RPCC_INTERP_THREADED 1
#else
#define RPCC_INTERP_THREADED 0
#endif
#endif

uint64_t Machine::runDecoded(FuncId Main) {
  const uint64_t Ret =
      Prof ? callDecoded<true>(Main, 0, nullptr, 0)
           : callDecoded<false>(Main, 0, nullptr, 0);
  // Nothing observes the counters mid-run and sums commute, so every
  // completed segment is multiplied out exactly once, fault or not.
  for (size_t S = 0; S != SegHits.size(); ++S) {
    if (!SegHits[S])
      continue;
    const DecodedSegment &Seg = DM->Segments[S];
    const DecodedFunction &DF = DM->Funcs[Seg.Fn];
    for (uint32_t I = Seg.First; I <= Seg.Last; ++I)
      countSlot(DF.Insts[I], Seg.Fn, SegHits[S]);
  }
  return Ret;
}

void Machine::countSlot(const DecodedInst &DI, FuncId F, uint64_t N) {
  FunctionCounters &FC = PerFunc[F];
  Counters.ByOpcode[static_cast<size_t>(DI.Op)] += N;
  FC.Total += N;
  if (DI.Flags & DIFlagLoad) {
    Counters.Loads += N;
    FC.Loads += N;
  }
  if (DI.Flags & DIFlagStore) {
    Counters.Stores += N;
    FC.Stores += N;
  }
}

void Machine::settleSegment(const DecodedFunction &DF, uint32_t At,
                            bool Include) {
  uint32_t First = At;
  while (!(DF.Insts[First].Flags & DIFlagSegStart))
    --First;
  for (uint32_t I = First; I != At + Include; ++I)
    countSlot(DF.Insts[I], DF.Id, 1);
}

uint64_t Machine::callDecodedDyn(FuncId FId, size_t CallerBase,
                                 const Reg *ArgRegs, size_t NArgs) {
  return Prof ? callDecoded<true>(FId, CallerBase, ArgRegs, NArgs)
              : callDecoded<false>(FId, CallerBase, ArgRegs, NArgs);
}

void Machine::profileDecoded(const DecodedInst &DI, uint32_t BaseSlot,
                             const uint64_t *Regs) {
  size_t Slot = BaseSlot;
  if (DI.Flags & DIFlagPtrProf) {
    // Pointer ops carry their row base; the tag comes from the runtime
    // address, exactly like the switch engine's profileMemOp.
    TagId T = resolveAddress(Regs[DI.A]);
    if (T != NoTag)
      Slot += size_t(T) + 1;
  }
  if (DI.Flags & DIFlagStore)
    Sink.countStore(Slot);
  else
    Sink.countLoad(Slot);
}

template <bool Profiled>
uint64_t Machine::callDecoded(FuncId FId, size_t CallerBase,
                              const Reg *ArgRegs, size_t NArgs) {
  const DecodedFunction &DF = DM->Funcs[FId];
  if (!DF.HasBody) {
    if (callGuardFaults())
      return 0;
    // Builtins take at most two arguments (the verifier checks arity).
    uint64_t Args[2] = {0, 0};
    for (size_t I = 0; I != NArgs && I != 2; ++I)
      Args[I] = RegArena.data()[CallerBase + ArgRegs[I]];
    return callBuiltin(DF.Builtin, Args, NArgs);
  }
  Frame F;
  if (!enterFrame(DF, CallerBase, ArgRegs, NArgs, F))
    return 0;
  JitProgram::Entry E = nullptr;
  if (JP) {
    // Lazy per-function compilation: pay emission only for functions that
    // actually run (and nothing at all on code-cache hits). Declines fall
    // back to the fast path, making --engine=jit total.
    E = JP->entry(FId);
    if (!E && !JP->declined(FId)) {
      uint64_t Us = 0;
      E = JP->compile(DF, Us);
      JitCompileUs += Us;
    }
  }
  const uint64_t Result = E ? runJit(E, F) : execDecoded<Profiled>(DF, F);
  leaveFrame(DF, F);
  return Result;
}

uint64_t Machine::runJit(JitProgram::Entry E, const Frame &F) {
  // Hand the step counter, its next stop and the arena bases to the native
  // frame; the call shims keep them fresh across nested calls, and the
  // epilogue flushes Total back even on faults.
  RT.TotalCell = Counters.Total;
  RT.StopCell = stepStop(Counters.Total);
  RT.RegArenaData = RegArena.data();
  RT.StackData = StackMem.data();
  RT.HeapData = HeapMem.data();
  RT.HeapSize = HeapMem.size();
  RT.StackSize = StackMem.size();
  RT.FaultCell = Err.Active;
  const uint64_t RetVal = E(&RT, F.RegBase, F.FrameOff);
  Counters.Total = RT.TotalCell;
  return RetVal;
}

template <bool Profiled>
uint64_t Machine::execDecoded(const DecodedFunction &DF, const Frame &F) {
  uint64_t RetVal = 0;
  uint64_t *R = RegArena.data() + F.RegBase;
  const uint64_t FrameBase = InterpStackBase + F.FrameOff;
  const DecodedInst *const IP = DF.Insts.data();
  const uint32_t *const PS = DF.ProfSlots.data(); // empty unless Profiled
  (void)PS;
  uint64_t *const Hits = SegHits.data();
  const DecodedInst *DI = IP;
  // Callee and argument registers of the call being made.
  FuncId CallFn = NoFunc;
  const Reg *CallArgs = nullptr;
  size_t CallN = 0;

  // Total lives in a local across the loop: the compiler cannot keep the
  // member in a register itself, because the memory helpers called from
  // handlers might alias it. It is flushed back at every exit and around
  // calls (the callee bumps the same Total), after which Stop is
  // recomputed.
  uint64_t TotalLoc = Counters.Total;
  uint64_t Stop = stepStop(TotalLoc);

#if defined(__GNUC__) || defined(__clang__)
#define RPCC_UNLIKELY(X) __builtin_expect(!!(X), 0)
#else
#define RPCC_UNLIKELY(X) (X)
#endif

// Step prologue; the single compare of Machine::stepStop. Only reaching
// Stop runs the switch engine's step-limit check and deadline poll. The
// step a limit or deadline fault stops is not counted, so LIMIT names the
// exit that settles exactly the steps before it.
#define RPCC_STEP_CHECK(LIMIT)                                                 \
  do {                                                                         \
    if (RPCC_UNLIKELY(++TotalLoc >= Stop) && !(Stop = stepSlow(TotalLoc)))     \
      goto LIMIT;                                                              \
  } while (0)
#define RPCC_STEP_PROLOGUE()                                                   \
  do {                                                                         \
    RPCC_STEP_CHECK(fast_limit);                                               \
    if constexpr (Profiled)                                                    \
      if (DI->Flags & DIFlagMem)                                               \
        profileDecoded(*DI, PS[DI - IP], R);                                   \
  } while (0)

// Prologue of the second operation of a fused pair. A limit or deadline
// fault here leaves the pair's first step, the slot at DI, as the last one
// to count, which is what fast_fault settles. Fused second ops are never
// profiled (mem-consuming fusions are disabled when a sink is attached).
#define RPCC_SECOND_STEP() RPCC_STEP_CHECK(fast_fault)

// Memory access through the one address decoder; a fault leaves through
// FAULT (fast_fault, or fast_fault2 from the second half of a fused pair).
#define RPCC_LOAD(DECODE, ADDR, FAULT)                                         \
  do {                                                                         \
    uint8_t *P;                                                                \
    if (!DECODE(ADDR, memTypeSize(DI->MemTy), P))                              \
      goto FAULT;                                                              \
    R[DI->Result] = readMem(P, DI->MemTy);                                     \
  } while (0)
#define RPCC_STORE(DECODE, ADDR, VAL, FAULT)                                   \
  do {                                                                         \
    uint8_t *P;                                                                \
    if (!DECODE(ADDR, memTypeSize(DI->MemTy), P))                              \
      goto FAULT;                                                              \
    writeMem(P, DI->MemTy, VAL);                                               \
  } while (0)

#if RPCC_INTERP_THREADED
#define RPCC_DISPATCH()                                                        \
  do {                                                                         \
    RPCC_STEP_PROLOGUE();                                                      \
    goto *DispatchTable[static_cast<size_t>(DI->D)];                           \
  } while (0)
#define RPCC_CASE(name) Lbl_##name
#define RPCC_NEXT()                                                            \
  do {                                                                         \
    ++DI;                                                                      \
    RPCC_DISPATCH();                                                           \
  } while (0)
#define RPCC_NEXT2()                                                           \
  do {                                                                         \
    DI += 2;                                                                   \
    RPCC_DISPATCH();                                                           \
  } while (0)
#define RPCC_JUMP() RPCC_DISPATCH()

  static const void *DispatchTable[] = {
      &&Lbl_Add,       &&Lbl_Sub,       &&Lbl_Mul,
      &&Lbl_Div,       &&Lbl_Rem,       &&Lbl_And,
      &&Lbl_Or,        &&Lbl_Xor,       &&Lbl_Shl,
      &&Lbl_Shr,       &&Lbl_CmpEq,     &&Lbl_CmpNe,
      &&Lbl_CmpLt,     &&Lbl_CmpLe,     &&Lbl_CmpGt,
      &&Lbl_CmpGe,     &&Lbl_FAdd,      &&Lbl_FSub,
      &&Lbl_FMul,      &&Lbl_FDiv,      &&Lbl_FCmpEq,
      &&Lbl_FCmpNe,    &&Lbl_FCmpLt,    &&Lbl_FCmpLe,
      &&Lbl_FCmpGt,    &&Lbl_FCmpGe,    &&Lbl_Neg,
      &&Lbl_Not,       &&Lbl_FNeg,      &&Lbl_IntToFp,
      &&Lbl_FpToInt,   &&Lbl_LoadI,     &&Lbl_LoadF,
      &&Lbl_Copy,      &&Lbl_LoadAddrAbs, &&Lbl_LoadAddrFrame,
      &&Lbl_ScalarLoadAbs, &&Lbl_ScalarLoadFrame, &&Lbl_ScalarStoreAbs,
      &&Lbl_ScalarStoreFrame, &&Lbl_PtrLoad, &&Lbl_PtrStore,
      &&Lbl_Call,      &&Lbl_CallIndirect, &&Lbl_Br,
      &&Lbl_Jmp,       &&Lbl_RetVal,    &&Lbl_RetVoid,
      &&Lbl_Fault,
      &&Lbl_CmpEqBr,   &&Lbl_CmpNeBr,   &&Lbl_CmpLtBr,
      &&Lbl_CmpLeBr,   &&Lbl_CmpGtBr,   &&Lbl_CmpGeBr,
      &&Lbl_FCmpEqBr,  &&Lbl_FCmpNeBr,  &&Lbl_FCmpLtBr,
      &&Lbl_FCmpLeBr,  &&Lbl_FCmpGtBr,  &&Lbl_FCmpGeBr,
      &&Lbl_LoadIAdd,  &&Lbl_LoadIMul,  &&Lbl_LoadISub,
      &&Lbl_LoadICmpEq, &&Lbl_LoadICmpNe, &&Lbl_LoadICmpLt,
      &&Lbl_AddAdd,    &&Lbl_MulAdd,
      &&Lbl_AddLoad,   &&Lbl_AddConstLoad,
      &&Lbl_AddStore,
      &&Lbl_FMulFAddA, &&Lbl_FMulFAddB,
      &&Lbl_FMulFSubA, &&Lbl_FMulFSubB,
      &&Lbl_LoadIJmp,  &&Lbl_CopyJmp,
  };
  assert(sizeof(DispatchTable) / sizeof(void *) ==
             static_cast<size_t>(DecodedOp::kNumDecodedOps) &&
         "dispatch table must cover every DecodedOp");
  RPCC_DISPATCH();
#else
#define RPCC_CASE(name) case DecodedOp::name
#define RPCC_NEXT()                                                            \
  {                                                                            \
    ++DI;                                                                      \
    break;                                                                     \
  }
#define RPCC_NEXT2()                                                           \
  {                                                                            \
    DI += 2;                                                                   \
    break;                                                                     \
  }
#define RPCC_JUMP() break

  for (;;) {
    RPCC_STEP_PROLOGUE();
    switch (DI->D) {
#endif

  RPCC_CASE(Add):
    R[DI->Result] = wrapAdd(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Sub):
    R[DI->Result] = wrapSub(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Mul):
    R[DI->Result] = wrapMul(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Div): {
    int64_t N = asI(R[DI->A]), D = asI(R[DI->B]);
    if (divFaults(N, D)) {
      Err.raise(D == 0 ? "integer division by zero"
                       : "integer division overflow (INT64_MIN / -1)");
      goto fast_fault;
    }
    R[DI->Result] = static_cast<uint64_t>(sdiv(N, D));
    RPCC_NEXT();
  }
  RPCC_CASE(Rem): {
    int64_t N = asI(R[DI->A]), D = asI(R[DI->B]);
    if (D == 0) {
      Err.raise("integer remainder by zero");
      goto fast_fault;
    }
    R[DI->Result] = static_cast<uint64_t>(srem(N, D));
    RPCC_NEXT();
  }
  RPCC_CASE(And):
    R[DI->Result] = R[DI->A] & R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(Or):
    R[DI->Result] = R[DI->A] | R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(Xor):
    R[DI->Result] = R[DI->A] ^ R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(Shl):
    R[DI->Result] = shiftLeft(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Shr):
    R[DI->Result] = shiftRightArith(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpEq):
    R[DI->Result] = R[DI->A] == R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(CmpNe):
    R[DI->Result] = R[DI->A] != R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(CmpLt):
    R[DI->Result] = asI(R[DI->A]) < asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpLe):
    R[DI->Result] = asI(R[DI->A]) <= asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpGt):
    R[DI->Result] = asI(R[DI->A]) > asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpGe):
    R[DI->Result] = asI(R[DI->A]) >= asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FAdd):
    R[DI->Result] = fromF(asF(R[DI->A]) + asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FSub):
    R[DI->Result] = fromF(asF(R[DI->A]) - asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FMul):
    R[DI->Result] = fromF(asF(R[DI->A]) * asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FDiv):
    R[DI->Result] = fromF(asF(R[DI->A]) / asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FCmpEq):
    R[DI->Result] = asF(R[DI->A]) == asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpNe):
    R[DI->Result] = asF(R[DI->A]) != asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpLt):
    R[DI->Result] = asF(R[DI->A]) < asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpLe):
    R[DI->Result] = asF(R[DI->A]) <= asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpGt):
    R[DI->Result] = asF(R[DI->A]) > asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpGe):
    R[DI->Result] = asF(R[DI->A]) >= asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Neg):
    R[DI->Result] = wrapNeg(R[DI->A]);
    RPCC_NEXT();
  RPCC_CASE(Not):
    R[DI->Result] = ~R[DI->A];
    RPCC_NEXT();
  RPCC_CASE(FNeg):
    R[DI->Result] = fromF(-asF(R[DI->A]));
    RPCC_NEXT();
  RPCC_CASE(IntToFp):
    R[DI->Result] = fromF(static_cast<double>(asI(R[DI->A])));
    RPCC_NEXT();
  RPCC_CASE(FpToInt):
    R[DI->Result] = static_cast<uint64_t>(fpToIntSat(asF(R[DI->A])));
    RPCC_NEXT();
  RPCC_CASE(LoadI):
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(LoadF):
    // The double's bit pattern was baked verbatim at decode time.
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(Copy):
    R[DI->Result] = R[DI->A];
    RPCC_NEXT();
  RPCC_CASE(LoadAddrAbs):
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(LoadAddrFrame):
    R[DI->Result] = FrameBase + static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(ScalarLoadAbs):
    RPCC_LOAD(globalAddr, static_cast<uint64_t>(DI->Imm), fast_fault);
    RPCC_NEXT();
  RPCC_CASE(ScalarLoadFrame):
    RPCC_LOAD(stackAddr, FrameBase + static_cast<uint64_t>(DI->Imm),
              fast_fault);
    RPCC_NEXT();
  RPCC_CASE(ScalarStoreAbs):
    RPCC_STORE(globalAddr, static_cast<uint64_t>(DI->Imm), R[DI->A],
               fast_fault);
    RPCC_NEXT();
  RPCC_CASE(ScalarStoreFrame):
    RPCC_STORE(stackAddr, FrameBase + static_cast<uint64_t>(DI->Imm),
               R[DI->A], fast_fault);
    RPCC_NEXT();
  RPCC_CASE(PtrLoad):
    RPCC_LOAD(decodeAddr, R[DI->A], fast_fault);
    RPCC_NEXT();
  RPCC_CASE(PtrStore):
    RPCC_STORE(decodeAddr, R[DI->A], R[DI->B], fast_fault);
    RPCC_NEXT();
  // A call closes its segment before the callee runs, so a fault anywhere
  // past this point (target check, frame entry, builtin, the callee's
  // steps) has nothing of this frame left to settle.
  RPCC_CASE(CallIndirect): {
    ++Hits[DI->Imm];
    const uint64_t Target = R[DI->A];
    if (Target < InterpFuncBase ||
        (Target & ~InterpFuncBase) >= M.numFunctions()) {
      Err.raise("indirect call through a non-function value");
      goto fast_done;
    }
    CallFn = static_cast<FuncId>(Target & ~InterpFuncBase);
    CallArgs = DF.ArgPool.data() + DI->T0;
    CallN = DI->T1;
    goto fast_call;
  }
  RPCC_CASE(Call):
    ++Hits[DI->Imm];
    CallFn = DI->T0;
    CallArgs = DF.ArgPool.data() + DI->T1;
    CallN = DI->A;
  fast_call: {
    Counters.Total = TotalLoc;
    const uint64_t V =
        callDecoded<Profiled>(CallFn, F.RegBase, CallArgs, CallN);
    TotalLoc = Counters.Total;
    Stop = stepStop(TotalLoc);
    R = RegArena.data() + F.RegBase; // the callee may have grown the arena
    if (Err.Active)
      goto fast_done;
    if (DI->Result != NoReg)
      R[DI->Result] = V;
    RPCC_NEXT();
  }
  RPCC_CASE(Br):
    ++Hits[DI->Imm];
    DI = IP + (R[DI->A] ? DI->T0 : DI->T1);
    RPCC_JUMP();
  RPCC_CASE(Jmp):
    ++Hits[DI->Imm];
    DI = IP + DI->T0;
    RPCC_JUMP();
  RPCC_CASE(RetVal):
    ++Hits[DI->Imm];
    RetVal = R[DI->A];
    goto fast_done;
  RPCC_CASE(RetVoid):
    ++Hits[DI->Imm];
    goto fast_done;
  RPCC_CASE(Fault):
    Err.raise(DF.FaultMsgs[static_cast<size_t>(DI->Imm)]);
    goto fast_fault;
// Fused compare-and-branch: the compare's result register is still written
// (it may have other readers), then the Br is counted and taken directly.
#define RPCC_CMP_BR(CMP)                                                       \
  do {                                                                         \
    const uint64_t C = (CMP);                                                  \
    R[DI->Result] = C;                                                         \
    RPCC_SECOND_STEP();                                                        \
    ++Hits[DI->Imm];                                                           \
    DI = IP + (C ? DI->T0 : DI->T1);                                           \
  } while (0)

  RPCC_CASE(CmpEqBr):
    RPCC_CMP_BR(R[DI->A] == R[DI->B]);
    RPCC_JUMP();
  RPCC_CASE(CmpNeBr):
    RPCC_CMP_BR(R[DI->A] != R[DI->B]);
    RPCC_JUMP();
  RPCC_CASE(CmpLtBr):
    RPCC_CMP_BR(asI(R[DI->A]) < asI(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(CmpLeBr):
    RPCC_CMP_BR(asI(R[DI->A]) <= asI(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(CmpGtBr):
    RPCC_CMP_BR(asI(R[DI->A]) > asI(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(CmpGeBr):
    RPCC_CMP_BR(asI(R[DI->A]) >= asI(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(FCmpEqBr):
    RPCC_CMP_BR(asF(R[DI->A]) == asF(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(FCmpNeBr):
    RPCC_CMP_BR(asF(R[DI->A]) != asF(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(FCmpLtBr):
    RPCC_CMP_BR(asF(R[DI->A]) < asF(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(FCmpLeBr):
    RPCC_CMP_BR(asF(R[DI->A]) <= asF(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(FCmpGtBr):
    RPCC_CMP_BR(asF(R[DI->A]) > asF(R[DI->B]));
    RPCC_JUMP();
  RPCC_CASE(FCmpGeBr):
    RPCC_CMP_BR(asF(R[DI->A]) >= asF(R[DI->B]));
    RPCC_JUMP();

// Fused constant-load-and-consume: the constant's register is written first
// (later readers and the both-operands case behave exactly as unfused),
// then the consumer is counted and executed over the register file.
#define RPCC_LOADI_THEN(EXPR)                                                  \
  do {                                                                         \
    R[DI->T0] = static_cast<uint64_t>(DI->Imm);                                \
    RPCC_SECOND_STEP();                                                        \
    R[DI->Result] = (EXPR);                                                    \
  } while (0)

  RPCC_CASE(LoadIAdd):
    RPCC_LOADI_THEN(wrapAdd(R[DI->A], R[DI->B]));
    RPCC_NEXT2();
  RPCC_CASE(LoadIMul):
    RPCC_LOADI_THEN(wrapMul(R[DI->A], R[DI->B]));
    RPCC_NEXT2();
  RPCC_CASE(LoadISub):
    RPCC_LOADI_THEN(wrapSub(R[DI->A], R[DI->B]));
    RPCC_NEXT2();
  RPCC_CASE(LoadICmpEq):
    RPCC_LOADI_THEN(uint64_t(R[DI->A] == R[DI->B]));
    RPCC_NEXT2();
  RPCC_CASE(LoadICmpNe):
    RPCC_LOADI_THEN(uint64_t(R[DI->A] != R[DI->B]));
    RPCC_NEXT2();
  RPCC_CASE(LoadICmpLt):
    RPCC_LOADI_THEN(uint64_t(asI(R[DI->A]) < asI(R[DI->B])));
    RPCC_NEXT2();

// Fused address-arithmetic chain: first Add/Mul writes its register, then
// the outer Add (operands T1 and the fresh result, read back through R so
// register aliasing behaves exactly as unfused) is counted and executed.
#define RPCC_BIN_THEN_ADD(EXPR)                                                \
  do {                                                                         \
    R[DI->T0] = (EXPR);                                                        \
    RPCC_SECOND_STEP();                                                        \
    R[DI->Result] = wrapAdd(R[DI->T1], R[DI->T0]);                             \
  } while (0)

  RPCC_CASE(AddAdd):
    RPCC_BIN_THEN_ADD(wrapAdd(R[DI->A], R[DI->B]));
    RPCC_NEXT2();
  RPCC_CASE(MulAdd):
    RPCC_BIN_THEN_ADD(wrapMul(R[DI->A], R[DI->B]));
    RPCC_NEXT2();

// Fused address-then-load: the Add's register is written before the load
// so a faulting load leaves the same (unobservable) register state as the
// unfused pair, then the pointer load is counted and executed; a fault
// settles through the dead slot, counting both halves.
  RPCC_CASE(AddLoad):
  RPCC_CASE(AddConstLoad): {
    const uint64_t Addr = wrapAdd(R[DI->A], R[DI->B]);
    R[DI->T0] = Addr;
    RPCC_SECOND_STEP();
    RPCC_LOAD(decodeAddr, Addr, fast_fault2);
    RPCC_NEXT2();
  }
  RPCC_CASE(AddStore): {
    // As AddLoad, but the stored value rides in Result; it is read after
    // the address register is written, exactly as the unfused pair would.
    const uint64_t Addr = wrapAdd(R[DI->A], R[DI->B]);
    R[DI->T0] = Addr;
    RPCC_SECOND_STEP();
    RPCC_STORE(decodeAddr, Addr, R[DI->Result], fast_fault2);
    RPCC_NEXT2();
  }
// Fused multiply-accumulate: the product's register is written first, then
// the outer FAdd/FSub is counted and executed reading back through R, with
// the operand order the variant recorded at decode time.
#define RPCC_FMUL_THEN(EXPR)                                                   \
  do {                                                                         \
    R[DI->T0] = fromF(asF(R[DI->A]) * asF(R[DI->B]));                          \
    RPCC_SECOND_STEP();                                                        \
    R[DI->Result] = fromF(EXPR);                                               \
  } while (0)

  RPCC_CASE(FMulFAddA):
    RPCC_FMUL_THEN(asF(R[DI->T0]) + asF(R[DI->T1]));
    RPCC_NEXT2();
  RPCC_CASE(FMulFAddB):
    RPCC_FMUL_THEN(asF(R[DI->T1]) + asF(R[DI->T0]));
    RPCC_NEXT2();
  RPCC_CASE(FMulFSubA):
    RPCC_FMUL_THEN(asF(R[DI->T0]) - asF(R[DI->T1]));
    RPCC_NEXT2();
  RPCC_CASE(FMulFSubB):
    RPCC_FMUL_THEN(asF(R[DI->T1]) - asF(R[DI->T0]));
    RPCC_NEXT2();
  RPCC_CASE(LoadIJmp):
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_SECOND_STEP();
    ++Hits[DI->B];
    DI = IP + DI->T0;
    RPCC_JUMP();
  RPCC_CASE(CopyJmp):
    R[DI->Result] = R[DI->A];
    RPCC_SECOND_STEP();
    ++Hits[DI->B];
    DI = IP + DI->T0;
    RPCC_JUMP();


#if !RPCC_INTERP_THREADED
    case DecodedOp::kNumDecodedOps:
      assert(false && "sentinel DecodedOp reached the fast engine");
      goto fast_done;
    }
  }
#endif

// A fault inside a segment settles the executed prefix of the segment; the
// step at DI counts when its prologue completed (memory, div/rem and Fault
// faults), not when the step limit or the deadline stopped it. A memory
// fault in the second half of a fused pair counts through the dead slot.
fast_limit:
  settleSegment(DF, static_cast<uint32_t>(DI - IP), false);
  goto fast_done;
fast_fault2:
  ++DI;
fast_fault:
  settleSegment(DF, static_cast<uint32_t>(DI - IP), true);
fast_done:
  Counters.Total = TotalLoc;
  return RetVal;

#undef RPCC_UNLIKELY
#undef RPCC_STEP_CHECK
#undef RPCC_STEP_PROLOGUE
#undef RPCC_SECOND_STEP
#undef RPCC_LOAD
#undef RPCC_STORE
#undef RPCC_CMP_BR
#undef RPCC_LOADI_THEN
#undef RPCC_BIN_THEN_ADD
#undef RPCC_FMUL_THEN
#undef RPCC_CASE
#undef RPCC_NEXT
#undef RPCC_NEXT2
#undef RPCC_JUMP
#if RPCC_INTERP_THREADED
#undef RPCC_DISPATCH
#endif
}
