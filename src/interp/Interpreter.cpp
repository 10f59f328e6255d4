//===- interp/Interpreter.cpp ---------------------------------------------===//
//
// Shared machine services plus the reference switch engine. The pre-decoded
// fast path lives in FastEngine.cpp; the two must stay observationally
// identical step for step (counters, profiles, output bytes, faults), and
// the engine-parity tests assert it.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Machine.h"
#include "obs/Metrics.h"
#include "support/Arith.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

using namespace rpcc;

const char *rpcc::interpEngineName(InterpEngine E) {
  switch (E) {
  case InterpEngine::Switch:
    return "switch";
  case InterpEngine::FastPath:
    return "fastpath";
  case InterpEngine::Jit:
    return "jit";
  }
  return "fastpath";
}

bool rpcc::parseInterpEngine(const std::string &Name, InterpEngine &Out) {
  if (Name == "switch") {
    Out = InterpEngine::Switch;
    return true;
  }
  if (Name == "fastpath") {
    Out = InterpEngine::FastPath;
    return true;
  }
  if (Name == "jit") {
    Out = InterpEngine::Jit;
    return true;
  }
  return false;
}

namespace {

/// Per-run JIT cost record. The per-function metrics (jit.functions,
/// jit.code_bytes, jit.fused_pairs, ...) are counted at the compile sites
/// under the program's compile lock, exactly once per function per distinct
/// cached program — which is what keeps them --jobs-invariant; here we only
/// observe what this run paid in wall time (count-stable: the observation
/// count is deterministic, the latency is not).
void recordJitRun(uint64_t CompileUs) {
  static Histogram CompileUsH = MetricsRegistry::global().histogram(
      "jit.compile_us", {}, MetricStability::CountStable, "us",
      "Wall time a jit-engine run spent in lazy compilation (0 on full "
      "code-cache hits).");
  CompileUsH.observe(CompileUs);
}

} // namespace

ExecResult Machine::run() {
  if (Opts.WallDeadlineMs)
    DeadlineAbsMs = wallNowMs() + Opts.WallDeadlineMs;
  GlobalLayout GL = computeGlobalLayout(M);
  Layouts = computeFrameLayouts(M);
  PerFunc.assign(M.numFunctions(), FunctionCounters());
  if (Prof)
    Sink.init(*Prof, M.numFunctions(), M.tags().size());

  // Decode against the layout before its pieces move into machine state;
  // baked addresses and machine addresses come from the same computation.
  // The jit decodes unfused: its templates cover exactly the base ops (it
  // re-derives its own fused templates at emit time).
  DecodedModule Decoded;
  if (Opts.Engine != InterpEngine::Switch)
    Decoded = decodeModule(M, GL, Layouts, Prof ? &Sink : nullptr,
                           /*Fuse=*/Opts.Engine == InterpEngine::FastPath);

  GlobalMem = std::move(GL.Image);
  GlobalAddr = std::move(GL.AddrOfTag);
  GlobalSpans = std::move(GL.Spans);

  ExecResult R;
  if (Opts.Engine == InterpEngine::Jit && !jitSupported()) {
    R.Error = "engine 'jit' is not supported on this host/build "
              "(requires x86-64 unix, non-sanitizer)";
    return R;
  }
  FuncId Main = M.lookup("main");
  if (Main == NoFunc) {
    R.Error = "no 'main' function";
    return R;
  }
  uint64_t Ret;
  if (Opts.Engine == InterpEngine::Switch) {
    Ret = callFunction(Main, {});
  } else {
    DM = &Decoded;
    SegHits.assign(Decoded.Segments.size(), 0);
    if (Opts.Engine == InterpEngine::Jit) {
      // Functions compile lazily on first call; the (possibly cache-shared)
      // program holds the published entries. Emitted code is relocatable —
      // module-level bases reach it through the JitRT cells below, set once
      // here because none of them can move during the run (SegHits is
      // sized already, GlobalMem never grows).
      JP = jitProgramFor(Decoded, GlobalMem.size(), Prof != nullptr,
                         Opts.JitCodeCache);
      initJitRuntime(RT, this);
      RT.SegHits = SegHits.data();
      RT.GlobalData = GlobalMem.data();
    }
    Ret = runDecoded(Main);
    if (Opts.Engine == InterpEngine::Jit) {
      recordJitRun(JitCompileUs);
      R.JitCompileMs = static_cast<double>(JitCompileUs) / 1000.0;
    }
  }
  R.Counters = Counters;
  R.PerFunction = std::move(PerFunc);
  R.Output = std::move(Output);
  if (Prof)
    R.Profile.finalize(Sink);
  if (Err.Active) {
    R.Error = Err.Message;
    return R;
  }
  R.Ok = true;
  R.ExitCode = static_cast<int64_t>(Ret);
  return R;
}

// -- Memory -------------------------------------------------------------------
void Machine::addrFault(uint64_t Addr) {
  // No segment holds the access; the range the address falls in names the
  // fault.
  if (Addr >= InterpFuncBase)
    Err.raise("memory access to a function address");
  else if (Addr >= InterpHeapBase)
    Err.raise("heap access out of bounds at +" +
              std::to_string(Addr - InterpHeapBase));
  else if (Addr >= InterpStackBase)
    Err.raise("stack access out of bounds");
  else if (Addr >= InterpGlobalBase)
    Err.raise("global access out of bounds");
  else
    Err.raise("null or invalid pointer dereference (address " +
              std::to_string(Addr) + ")");
}

// -- Budgets of the fast engines ----------------------------------------------
uint64_t Machine::stepSlow(uint64_t Total) {
  if (Total > Opts.MaxSteps) {
    Err.raise("step limit exceeded (infinite loop?)");
    return 0;
  }
  if ((Total & 0xFFFF) == 0 && checkWallDeadline())
    return 0;
  return stepStop(Total);
}

bool Machine::callGuardFaults() {
  if (Err.Active)
    return true;
  if (CallDepth >= Opts.MaxCallDepth) {
    Err.raise("call depth limit exceeded (runaway recursion?)");
    return true;
  }
  return false;
}

bool Machine::frameGuardFaults(size_t FrameSize) {
  return callGuardFaults() || checkFrameBudget(FrameSize) ||
         checkWallDeadline();
}

uint64_t Machine::tagAddress(TagId T, uint64_t FrameBase) {
  const Tag &Tg = M.tags().tag(T);
  switch (Tg.Kind) {
  case TagKind::Global: {
    uint64_t Addr = T < GlobalAddr.size() ? GlobalAddr[T] : GlobalLayout::NoAddr;
    if (Addr == GlobalLayout::NoAddr) {
      Err.raise("scalar reference to unallocated global tag " + Tg.Name);
      return 0;
    }
    return Addr;
  }
  case TagKind::Local:
  case TagKind::Spill: {
    const uint32_t *Off = CurLayout->offsetOf(T);
    if (!Off) {
      Err.raise("scalar reference to foreign frame local " + Tg.Name);
      return 0;
    }
    return FrameBase + *Off;
  }
  case TagKind::Func:
    return InterpFuncBase | Tg.Fn;
  case TagKind::Heap:
    Err.raise("address of a heap summary tag");
    return 0;
  }
  return 0;
}

// -- Tag profiling ------------------------------------------------------------
TagId Machine::resolveAddress(uint64_t Addr) const {
  if (Addr >= InterpHeapBase) // heap and function address ranges
    return NoTag;
  if (Addr >= InterpStackBase) {
    auto It = std::upper_bound(
        FrameStack.begin(), FrameStack.end(), Addr,
        [](uint64_t A, const std::pair<uint64_t, FuncId> &F) {
          return A < F.first;
        });
    if (It == FrameStack.begin())
      return NoTag;
    --It;
    const FrameLayout &L = Layouts[It->second];
    if (L.Spans.empty())
      return NoTag;
    uint32_t Off = static_cast<uint32_t>(Addr - It->first);
    auto SIt = std::upper_bound(
        L.Spans.begin(), L.Spans.end(), Off,
        [](uint32_t O, const std::pair<uint32_t, TagId> &S) {
          return O < S.first;
        });
    if (SIt == L.Spans.begin())
      return NoTag;
    return std::prev(SIt)->second;
  }
  if (Addr >= InterpGlobalBase) {
    auto It = std::upper_bound(
        GlobalSpans.begin(), GlobalSpans.end(), Addr,
        [](uint64_t A, const std::pair<uint64_t, TagId> &S) {
          return A < S.first;
        });
    if (It == GlobalSpans.begin())
      return NoTag;
    return std::prev(It)->second;
  }
  return NoTag;
}

void Machine::profileMemOp(const Function &F, BlockId BB, const Instruction &I,
                           const std::vector<uint64_t> &Regs) {
  TagId T = (I.Op == Opcode::ScalarLoad || I.Op == Opcode::ScalarStore)
                ? I.Tag
                : resolveAddress(Regs[I.Ops[0]]);
  size_t Slot = Sink.slot(Sink.pairOf(F.id(), BB), T);
  if (isStoreOp(I.Op))
    Sink.countStore(Slot);
  else
    Sink.countLoad(Slot);
}

// -- Calls and builtins -------------------------------------------------------
uint64_t Machine::callFunction(FuncId FId, const std::vector<uint64_t> &Args) {
  if (Err.Active)
    return 0;
  if (++CallDepth > Opts.MaxCallDepth) {
    Err.raise("call depth limit exceeded (runaway recursion?)");
    --CallDepth;
    return 0;
  }
  const Function *F = M.function(FId);
  uint64_t Result = F->isBuiltin()
                        ? callBuiltin(F->builtin(), Args.data(), Args.size())
                        : executeBody(*F, Args);
  --CallDepth;
  return Result;
}

uint64_t Machine::callBuiltin(BuiltinKind K, const uint64_t *Args, size_t N) {
  (void)N; // arity is verifier-checked; builtins index their fixed params
  switch (K) {
  case BuiltinKind::Malloc: {
    uint64_t Size = Args[0];
    if (HeapMem.size() + Size > Opts.HeapLimit) {
      Err.raise("heap limit exceeded");
      return 0;
    }
    uint64_t Addr = InterpHeapBase + HeapMem.size();
    HeapMem.resize(HeapMem.size() + (Size + 7) / 8 * 8, 0);
    return Addr;
  }
  case BuiltinKind::Free:
    return 0; // bump allocator: free is a no-op
  case BuiltinKind::PrintInt:
    appendOutput(std::to_string(asI(Args[0])));
    return 0;
  case BuiltinKind::PrintChar:
    appendOutput(std::string(1, static_cast<char>(Args[0])));
    return 0;
  case BuiltinKind::PrintFloat:
    appendOutput(fixed(asF(Args[0]), 6));
    return 0;
  case BuiltinKind::PrintStr: {
    uint64_t P = Args[0];
    std::string S;
    for (;;) {
      uint8_t *B;
      if (!decodeAddr(P++, 1, B) || !*B)
        break;
      S.push_back(static_cast<char>(*B));
      if (S.size() > (1 << 20)) {
        Err.raise("unterminated string passed to print_str");
        break;
      }
    }
    appendOutput(S);
    return 0;
  }
  case BuiltinKind::Sqrt:
    return fromF(std::sqrt(asF(Args[0])));
  case BuiltinKind::Sin:
    return fromF(std::sin(asF(Args[0])));
  case BuiltinKind::Cos:
    return fromF(std::cos(asF(Args[0])));
  case BuiltinKind::Pow:
    return fromF(std::pow(asF(Args[0]), asF(Args[1])));
  case BuiltinKind::None:
    break;
  }
  Err.raise("call to builtin without implementation");
  return 0;
}

void Machine::appendOutput(const std::string &S) {
  if (Output.size() + S.size() > Opts.OutputLimit) {
    Err.raise("output limit exceeded");
    return;
  }
  Output += S;
}

// -- Reference switch engine --------------------------------------------------
uint64_t Machine::executeBody(const Function &F,
                              const std::vector<uint64_t> &Args) {
  const FrameLayout &Layout = Layouts[F.id()];
  // Budget checks before the frame exists: a fault here costs no callee
  // steps, keeping both engines counting-exact at the limit.
  if (checkFrameBudget(Layout.Size) || checkWallDeadline())
    return 0;
  const FrameLayout *SavedLayout = CurLayout;
  CurLayout = &Layout;

  uint64_t FrameBase = InterpStackBase + StackMem.push(Layout.Size);
  // Zero-sized frames own no stack bytes: keeping them off the frame
  // stack keeps its bases strictly increasing for binary search.
  if (Prof && Layout.Size)
    FrameStack.push_back({FrameBase, F.id()});

  std::vector<uint64_t> Regs(F.numRegs(), 0);
  for (size_t I = 0; I != Args.size() && I != F.paramRegs().size(); ++I)
    Regs[F.paramRegs()[I]] = Args[I];

  uint64_t RetVal = 0;
  BlockId BB = 0;
  size_t PC = 0;
  while (!Err.Active) {
    if (++Counters.Total > Opts.MaxSteps) {
      Err.raise("step limit exceeded (infinite loop?)");
      break;
    }
    if ((Counters.Total & 0xFFFF) == 0 && checkWallDeadline())
      break;
    const BasicBlock *Blk = F.block(BB);
    assert(PC < Blk->size() && "fell off the end of a block");
    const Instruction &I = *Blk->insts()[PC];
    ++Counters.ByOpcode[static_cast<size_t>(I.Op)];
    FunctionCounters &FC = PerFunc[F.id()];
    ++FC.Total;
    if (isLoadOp(I.Op)) {
      ++Counters.Loads;
      ++FC.Loads;
    }
    if (isStoreOp(I.Op)) {
      ++Counters.Stores;
      ++FC.Stores;
    }
    if (Prof && isMemOp(I.Op))
      profileMemOp(F, BB, I, Regs);

    switch (I.Op) {
    case Opcode::Add:
      Regs[I.Result] = wrapAdd(Regs[I.Ops[0]], Regs[I.Ops[1]]);
      break;
    case Opcode::Sub:
      Regs[I.Result] = wrapSub(Regs[I.Ops[0]], Regs[I.Ops[1]]);
      break;
    case Opcode::Mul:
      Regs[I.Result] = wrapMul(Regs[I.Ops[0]], Regs[I.Ops[1]]);
      break;
    case Opcode::Div: {
      int64_t N = asI(Regs[I.Ops[0]]), D = asI(Regs[I.Ops[1]]);
      if (divFaults(N, D)) {
        Err.raise(D == 0 ? "integer division by zero"
                         : "integer division overflow (INT64_MIN / -1)");
        break;
      }
      Regs[I.Result] = static_cast<uint64_t>(sdiv(N, D));
      break;
    }
    case Opcode::Rem: {
      int64_t N = asI(Regs[I.Ops[0]]), D = asI(Regs[I.Ops[1]]);
      if (D == 0) {
        Err.raise("integer remainder by zero");
        break;
      }
      Regs[I.Result] = static_cast<uint64_t>(srem(N, D));
      break;
    }
    case Opcode::And: Regs[I.Result] = Regs[I.Ops[0]] & Regs[I.Ops[1]]; break;
    case Opcode::Or: Regs[I.Result] = Regs[I.Ops[0]] | Regs[I.Ops[1]]; break;
    case Opcode::Xor: Regs[I.Result] = Regs[I.Ops[0]] ^ Regs[I.Ops[1]]; break;
    case Opcode::Shl:
      Regs[I.Result] = shiftLeft(Regs[I.Ops[0]], Regs[I.Ops[1]]);
      break;
    case Opcode::Shr:
      Regs[I.Result] = shiftRightArith(Regs[I.Ops[0]], Regs[I.Ops[1]]);
      break;
    case Opcode::CmpEq:
      Regs[I.Result] = Regs[I.Ops[0]] == Regs[I.Ops[1]];
      break;
    case Opcode::CmpNe:
      Regs[I.Result] = Regs[I.Ops[0]] != Regs[I.Ops[1]];
      break;
    case Opcode::CmpLt:
      Regs[I.Result] = asI(Regs[I.Ops[0]]) < asI(Regs[I.Ops[1]]);
      break;
    case Opcode::CmpLe:
      Regs[I.Result] = asI(Regs[I.Ops[0]]) <= asI(Regs[I.Ops[1]]);
      break;
    case Opcode::CmpGt:
      Regs[I.Result] = asI(Regs[I.Ops[0]]) > asI(Regs[I.Ops[1]]);
      break;
    case Opcode::CmpGe:
      Regs[I.Result] = asI(Regs[I.Ops[0]]) >= asI(Regs[I.Ops[1]]);
      break;
    case Opcode::FAdd:
      Regs[I.Result] = fromF(asF(Regs[I.Ops[0]]) + asF(Regs[I.Ops[1]]));
      break;
    case Opcode::FSub:
      Regs[I.Result] = fromF(asF(Regs[I.Ops[0]]) - asF(Regs[I.Ops[1]]));
      break;
    case Opcode::FMul:
      Regs[I.Result] = fromF(asF(Regs[I.Ops[0]]) * asF(Regs[I.Ops[1]]));
      break;
    case Opcode::FDiv:
      Regs[I.Result] = fromF(asF(Regs[I.Ops[0]]) / asF(Regs[I.Ops[1]]));
      break;
    case Opcode::FCmpEq:
      Regs[I.Result] = asF(Regs[I.Ops[0]]) == asF(Regs[I.Ops[1]]);
      break;
    case Opcode::FCmpNe:
      Regs[I.Result] = asF(Regs[I.Ops[0]]) != asF(Regs[I.Ops[1]]);
      break;
    case Opcode::FCmpLt:
      Regs[I.Result] = asF(Regs[I.Ops[0]]) < asF(Regs[I.Ops[1]]);
      break;
    case Opcode::FCmpLe:
      Regs[I.Result] = asF(Regs[I.Ops[0]]) <= asF(Regs[I.Ops[1]]);
      break;
    case Opcode::FCmpGt:
      Regs[I.Result] = asF(Regs[I.Ops[0]]) > asF(Regs[I.Ops[1]]);
      break;
    case Opcode::FCmpGe:
      Regs[I.Result] = asF(Regs[I.Ops[0]]) >= asF(Regs[I.Ops[1]]);
      break;
    case Opcode::Neg:
      Regs[I.Result] = wrapNeg(Regs[I.Ops[0]]);
      break;
    case Opcode::Not:
      Regs[I.Result] = ~Regs[I.Ops[0]];
      break;
    case Opcode::FNeg:
      Regs[I.Result] = fromF(-asF(Regs[I.Ops[0]]));
      break;
    case Opcode::IntToFp:
      Regs[I.Result] = fromF(static_cast<double>(asI(Regs[I.Ops[0]])));
      break;
    case Opcode::FpToInt:
      Regs[I.Result] = static_cast<uint64_t>(fpToIntSat(asF(Regs[I.Ops[0]])));
      break;
    case Opcode::LoadI:
      Regs[I.Result] = static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::LoadF:
      Regs[I.Result] = fromF(I.FImm);
      break;
    case Opcode::Copy:
      Regs[I.Result] = Regs[I.Ops[0]];
      break;
    case Opcode::LoadAddr:
      Regs[I.Result] =
          tagAddress(I.Tag, FrameBase) + static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::ScalarLoad:
      Regs[I.Result] = loadMem(tagAddress(I.Tag, FrameBase), I.MemTy);
      break;
    case Opcode::ScalarStore:
      storeMem(tagAddress(I.Tag, FrameBase), I.MemTy, Regs[I.Ops[0]]);
      break;
    case Opcode::Load:
    case Opcode::ConstLoad:
      Regs[I.Result] = loadMem(Regs[I.Ops[0]], I.MemTy);
      break;
    case Opcode::Store:
      storeMem(Regs[I.Ops[0]], I.MemTy, Regs[I.Ops[1]]);
      break;
    case Opcode::Call: {
      std::vector<uint64_t> Args2;
      Args2.reserve(I.Ops.size());
      for (Reg R : I.Ops)
        Args2.push_back(Regs[R]);
      uint64_t V = callFunction(I.Callee, Args2);
      CurLayout = &Layout; // restore after the callee switched layouts
      if (I.hasResult())
        Regs[I.Result] = V;
      break;
    }
    case Opcode::CallIndirect: {
      uint64_t Target = Regs[I.Ops[0]];
      if (Target < InterpFuncBase ||
          (Target & ~InterpFuncBase) >= M.numFunctions()) {
        Err.raise("indirect call through a non-function value");
        break;
      }
      std::vector<uint64_t> Args2;
      for (size_t A = 1; A != I.Ops.size(); ++A)
        Args2.push_back(Regs[I.Ops[A]]);
      uint64_t V =
          callFunction(static_cast<FuncId>(Target & ~InterpFuncBase), Args2);
      CurLayout = &Layout;
      if (I.hasResult())
        Regs[I.Result] = V;
      break;
    }
    case Opcode::Br:
      BB = Regs[I.Ops[0]] ? I.Target0 : I.Target1;
      PC = 0;
      continue;
    case Opcode::Jmp:
      BB = I.Target0;
      PC = 0;
      continue;
    case Opcode::Ret:
      if (!I.Ops.empty())
        RetVal = Regs[I.Ops[0]];
      if (Prof && Layout.Size)
        FrameStack.pop_back();
      StackMem.pop(FrameBase - InterpStackBase);
      CurLayout = SavedLayout;
      return RetVal;
    case Opcode::Phi:
      Err.raise("phi reached the interpreter (SSA not destructed)");
      break;
    case Opcode::kNumOpcodes:
      Err.raise("sentinel opcode reached the interpreter");
      break;
    }
    ++PC;
  }

  if (Prof && Layout.Size)
    FrameStack.pop_back();
  StackMem.pop(FrameBase - InterpStackBase);
  CurLayout = SavedLayout;
  return RetVal;
}

namespace {

/// Per-engine execution tallies, recorded once per interpret() call (never
/// per step). Stable: the set of runs and their step/fault outcomes are
/// deterministic for a given configuration.
struct EngineMetrics {
  Counter Runs, Steps, Faults;
};

EngineMetrics &engineMetrics(InterpEngine E) {
  static EngineMetrics M[3] = {};
  static std::once_flag Once;
  std::call_once(Once, [] {
    auto &R = MetricsRegistry::global();
    for (InterpEngine E :
         {InterpEngine::Switch, InterpEngine::FastPath, InterpEngine::Jit}) {
      MetricLabels L = {{"engine", interpEngineName(E)}};
      EngineMetrics &EM = M[static_cast<size_t>(E)];
      EM.Runs = R.counter("interp.runs", L, MetricStability::Stable, "ops",
                          "interpret() invocations per engine.");
      EM.Steps = R.counter("interp.steps", L, MetricStability::Stable, "ops",
                           "Dynamic IL operations executed per engine.");
      EM.Faults = R.counter("interp.faults", L, MetricStability::Stable,
                            "ops", "Runs that ended in a fault per engine.");
    }
  });
  return M[static_cast<size_t>(E)];
}

} // namespace

ExecResult rpcc::interpret(const Module &M, const InterpOptions &Opts) {
  Machine Mch(M, Opts);
  ExecResult R = Mch.run();
  EngineMetrics &EM = engineMetrics(Opts.Engine);
  EM.Runs.inc();
  EM.Steps.inc(R.Counters.Total);
  if (!R.Ok)
    EM.Faults.inc();
  return R;
}
