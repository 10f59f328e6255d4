//===- interp/Decode.cpp --------------------------------------------------===//

#include "interp/Decode.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rpcc;

const uint32_t *FrameLayout::offsetOf(TagId T) const {
  auto It = std::lower_bound(
      Offsets.begin(), Offsets.end(), T,
      [](const std::pair<TagId, uint32_t> &E, TagId Id) { return E.first < Id; });
  if (It == Offsets.end() || It->first != T)
    return nullptr;
  return &It->second;
}

std::vector<FrameLayout> rpcc::computeFrameLayouts(const Module &M) {
  std::vector<FrameLayout> Layouts(M.numFunctions());
  for (FuncId F = 0; F != M.numFunctions(); ++F) {
    FrameLayout &L = Layouts[F];
    for (TagId Id : M.tagsOwnedBy(F)) {
      const Tag &T = M.tags().tag(Id);
      L.Size = (L.Size + 7) / 8 * 8; // every slot 8-aligned
      L.Offsets.push_back({Id, L.Size});  // ascending tag ids by construction
      L.Spans.push_back({L.Size, Id});    // ascending offsets by construction
      L.Size += std::max<uint32_t>(T.SizeBytes, 1);
    }
    L.Size = (L.Size + 7) / 8 * 8;
  }
  return Layouts;
}

GlobalLayout rpcc::computeGlobalLayout(const Module &M) {
  GlobalLayout GL;
  GL.AddrOfTag.assign(M.tags().size(), GlobalLayout::NoAddr);
  for (const GlobalInit &G : M.globals()) {
    const Tag &T = M.tags().tag(G.Tag);
    uint64_t Addr = InterpGlobalBase + GL.Image.size();
    GL.AddrOfTag[G.Tag] = Addr;
    GL.Spans.push_back({Addr, G.Tag}); // ascending by construction
    size_t Sz = std::max<size_t>(T.SizeBytes, 1);
    size_t Aligned = (Sz + 7) / 8 * 8;
    size_t Off = GL.Image.size();
    GL.Image.resize(Off + Aligned, 0);
    if (!G.Bytes.empty())
      std::memcpy(GL.Image.data() + Off, G.Bytes.data(),
                  std::min(G.Bytes.size(), Sz));
  }
  return GL;
}

namespace {

/// 1:1 opcode lowerings; the address-mode and control cases are handled
/// explicitly in decodeInst.
DecodedOp simpleOp(Opcode Op) {
  switch (Op) {
  case Opcode::Add: return DecodedOp::Add;
  case Opcode::Sub: return DecodedOp::Sub;
  case Opcode::Mul: return DecodedOp::Mul;
  case Opcode::Div: return DecodedOp::Div;
  case Opcode::Rem: return DecodedOp::Rem;
  case Opcode::And: return DecodedOp::And;
  case Opcode::Or: return DecodedOp::Or;
  case Opcode::Xor: return DecodedOp::Xor;
  case Opcode::Shl: return DecodedOp::Shl;
  case Opcode::Shr: return DecodedOp::Shr;
  case Opcode::CmpEq: return DecodedOp::CmpEq;
  case Opcode::CmpNe: return DecodedOp::CmpNe;
  case Opcode::CmpLt: return DecodedOp::CmpLt;
  case Opcode::CmpLe: return DecodedOp::CmpLe;
  case Opcode::CmpGt: return DecodedOp::CmpGt;
  case Opcode::CmpGe: return DecodedOp::CmpGe;
  case Opcode::FAdd: return DecodedOp::FAdd;
  case Opcode::FSub: return DecodedOp::FSub;
  case Opcode::FMul: return DecodedOp::FMul;
  case Opcode::FDiv: return DecodedOp::FDiv;
  case Opcode::FCmpEq: return DecodedOp::FCmpEq;
  case Opcode::FCmpNe: return DecodedOp::FCmpNe;
  case Opcode::FCmpLt: return DecodedOp::FCmpLt;
  case Opcode::FCmpLe: return DecodedOp::FCmpLe;
  case Opcode::FCmpGt: return DecodedOp::FCmpGt;
  case Opcode::FCmpGe: return DecodedOp::FCmpGe;
  case Opcode::Neg: return DecodedOp::Neg;
  case Opcode::Not: return DecodedOp::Not;
  case Opcode::FNeg: return DecodedOp::FNeg;
  case Opcode::IntToFp: return DecodedOp::IntToFp;
  case Opcode::FpToInt: return DecodedOp::FpToInt;
  case Opcode::LoadI: return DecodedOp::LoadI;
  case Opcode::Copy: return DecodedOp::Copy;
  default:
    assert(false && "not a 1:1 lowering");
    return DecodedOp::Fault;
  }
}

uint32_t addFaultMsg(DecodedFunction &DF, std::string Msg) {
  DF.FaultMsgs.push_back(std::move(Msg));
  return static_cast<uint32_t>(DF.FaultMsgs.size() - 1);
}

/// Resolution of a tag-addressed operand at decode time.
struct TagAddr {
  enum { Abs, Frame, Faulting } Kind = Faulting;
  uint64_t Base = 0;     ///< absolute address (Abs) or frame offset (Frame)
  uint32_t MsgIdx = 0;   ///< FaultMsgs index when Faulting
};

/// Mirrors the switch engine's tagAddress: same cases, same messages, but
/// evaluated once per instruction instead of once per executed step.
TagAddr resolveTag(const Module &M, const GlobalLayout &GL,
                   const FrameLayout &FL, FuncId F, TagId T,
                   DecodedFunction &DF) {
  TagAddr R;
  const Tag &Tg = M.tags().tag(T);
  switch (Tg.Kind) {
  case TagKind::Global: {
    uint64_t Addr = GL.addressOf(T);
    if (Addr == GlobalLayout::NoAddr) {
      R.MsgIdx = addFaultMsg(
          DF, "scalar reference to unallocated global tag " + Tg.Name);
      return R;
    }
    R.Kind = TagAddr::Abs;
    R.Base = Addr;
    return R;
  }
  case TagKind::Local:
  case TagKind::Spill: {
    const uint32_t *Off = Tg.Owner == F ? FL.offsetOf(T) : nullptr;
    if (!Off) {
      R.MsgIdx =
          addFaultMsg(DF, "scalar reference to foreign frame local " + Tg.Name);
      return R;
    }
    R.Kind = TagAddr::Frame;
    R.Base = *Off;
    return R;
  }
  case TagKind::Func:
    R.Kind = TagAddr::Abs;
    R.Base = InterpFuncBase | Tg.Fn;
    return R;
  case TagKind::Heap:
    R.MsgIdx = addFaultMsg(DF, "address of a heap summary tag");
    return R;
  }
  R.MsgIdx = addFaultMsg(DF, "address of an unknown tag kind");
  return R;
}

DecodedInst decodeInst(const Module &M, const GlobalLayout &GL,
                       const FrameLayout &FL, const DenseProfileSink *Sink,
                       const Function &F, BlockId BB, const Instruction &I,
                       const std::vector<uint32_t> &BlockStart,
                       DecodedFunction &DF, uint32_t &ProfSlot) {
  DecodedInst DI;
  DI.Op = I.Op;
  DI.MemTy = I.MemTy;
  DI.Result = I.Result;
  DI.A = I.Ops.size() > 0 ? I.Ops[0] : NoReg;
  DI.B = I.Ops.size() > 1 ? I.Ops[1] : NoReg;
  DI.Imm = I.Imm;
  if (isLoadOp(I.Op))
    DI.Flags |= DIFlagLoad;
  if (isStoreOp(I.Op))
    DI.Flags |= DIFlagStore;
  if (isMemOp(I.Op)) {
    DI.Flags |= DIFlagMem;
    if (Sink) {
      uint32_t Pair = Sink->pairOf(F.id(), BB);
      // Scalar ops profile their named tag; pointer ops resolve the runtime
      // address, so they get the row base and add the tag slot at run time.
      if (isPointerMemOp(I.Op)) {
        DI.Flags |= DIFlagPtrProf;
        ProfSlot = static_cast<uint32_t>(Sink->slot(Pair, NoTag));
      } else {
        ProfSlot = static_cast<uint32_t>(Sink->slot(Pair, I.Tag));
      }
    }
  }

  auto lowerTagOp = [&](DecodedOp AbsOp, DecodedOp FrameOp,
                        uint64_t Displacement) {
    TagAddr TA = resolveTag(M, GL, FL, F.id(), I.Tag, DF);
    switch (TA.Kind) {
    case TagAddr::Abs:
      DI.D = AbsOp;
      DI.Imm = static_cast<int64_t>(TA.Base + Displacement);
      break;
    case TagAddr::Frame:
      DI.D = FrameOp;
      DI.Imm = static_cast<int64_t>(TA.Base + Displacement);
      break;
    case TagAddr::Faulting:
      DI.D = DecodedOp::Fault;
      DI.Imm = TA.MsgIdx;
      break;
    }
  };

  switch (I.Op) {
  case Opcode::LoadF:
    DI.D = DecodedOp::LoadF;
    static_assert(sizeof(double) == sizeof(int64_t), "IEEE double expected");
    std::memcpy(&DI.Imm, &I.FImm, 8);
    break;
  case Opcode::LoadAddr:
    lowerTagOp(DecodedOp::LoadAddrAbs, DecodedOp::LoadAddrFrame,
               static_cast<uint64_t>(I.Imm));
    break;
  case Opcode::ScalarLoad:
    lowerTagOp(DecodedOp::ScalarLoadAbs, DecodedOp::ScalarLoadFrame, 0);
    break;
  case Opcode::ScalarStore:
    lowerTagOp(DecodedOp::ScalarStoreAbs, DecodedOp::ScalarStoreFrame, 0);
    break;
  case Opcode::Load:
  case Opcode::ConstLoad:
    DI.D = DecodedOp::PtrLoad;
    break;
  case Opcode::Store:
    DI.D = DecodedOp::PtrStore;
    break;
  case Opcode::Call:
    DI.D = DecodedOp::Call;
    DI.T0 = I.Callee;
    DI.T1 = static_cast<uint32_t>(DF.ArgPool.size());
    DI.A = static_cast<uint32_t>(I.Ops.size());
    DF.ArgPool.insert(DF.ArgPool.end(), I.Ops.begin(), I.Ops.end());
    break;
  case Opcode::CallIndirect:
    DI.D = DecodedOp::CallIndirect;
    DI.T0 = static_cast<uint32_t>(DF.ArgPool.size());
    DI.T1 = static_cast<uint32_t>(I.Ops.size() - 1);
    DF.ArgPool.insert(DF.ArgPool.end(), I.Ops.begin() + 1, I.Ops.end());
    break;
  case Opcode::Br:
    DI.D = DecodedOp::Br;
    DI.T0 = BlockStart[I.Target0];
    DI.T1 = BlockStart[I.Target1];
    break;
  case Opcode::Jmp:
    DI.D = DecodedOp::Jmp;
    DI.T0 = BlockStart[I.Target0];
    break;
  case Opcode::Ret:
    DI.D = I.Ops.empty() ? DecodedOp::RetVoid : DecodedOp::RetVal;
    break;
  case Opcode::Phi:
    DI.D = DecodedOp::Fault;
    DI.Imm =
        addFaultMsg(DF, "phi reached the interpreter (SSA not destructed)");
    break;
  case Opcode::kNumOpcodes:
    DI.D = DecodedOp::Fault;
    DI.Imm = addFaultMsg(DF, "sentinel opcode reached the interpreter");
    break;
  default:
    DI.D = simpleOp(I.Op);
    break;
  }
  return DI;
}

/// Fused DecodedOp for an integer compare whose result feeds the adjacent
/// Br; kNumDecodedOps when \p D is not a fusible compare.
DecodedOp cmpBrOp(DecodedOp D) {
  switch (D) {
  case DecodedOp::CmpEq: return DecodedOp::CmpEqBr;
  case DecodedOp::CmpNe: return DecodedOp::CmpNeBr;
  case DecodedOp::CmpLt: return DecodedOp::CmpLtBr;
  case DecodedOp::CmpLe: return DecodedOp::CmpLeBr;
  case DecodedOp::CmpGt: return DecodedOp::CmpGtBr;
  case DecodedOp::CmpGe: return DecodedOp::CmpGeBr;
  case DecodedOp::FCmpEq: return DecodedOp::FCmpEqBr;
  case DecodedOp::FCmpNe: return DecodedOp::FCmpNeBr;
  case DecodedOp::FCmpLt: return DecodedOp::FCmpLtBr;
  case DecodedOp::FCmpLe: return DecodedOp::FCmpLeBr;
  case DecodedOp::FCmpGt: return DecodedOp::FCmpGtBr;
  case DecodedOp::FCmpGe: return DecodedOp::FCmpGeBr;
  default: return DecodedOp::kNumDecodedOps;
  }
}

/// Fused DecodedOp for an op consuming the adjacent LoadI; kNumDecodedOps
/// when \p D is not one of the high-frequency consumers worth a handler.
DecodedOp loadIOp(DecodedOp D) {
  switch (D) {
  case DecodedOp::Add: return DecodedOp::LoadIAdd;
  case DecodedOp::Mul: return DecodedOp::LoadIMul;
  case DecodedOp::Sub: return DecodedOp::LoadISub;
  case DecodedOp::CmpEq: return DecodedOp::LoadICmpEq;
  case DecodedOp::CmpNe: return DecodedOp::LoadICmpNe;
  case DecodedOp::CmpLt: return DecodedOp::LoadICmpLt;
  default: return DecodedOp::kNumDecodedOps;
  }
}

/// Cuts \p DF into counting segments: flags each segment's first slot and
/// writes the next module-wide id into its closing instruction's Imm,
/// recording the segment in \p Segs. Runs on the unfused stream of a
/// verified function (every block ends in a terminator, so no segment runs
/// across a block start).
void markSegments(DecodedFunction &DF, const std::vector<uint32_t> &BlockStart,
                  std::vector<DecodedSegment> &Segs) {
  const uint32_t N = static_cast<uint32_t>(DF.Insts.size());
  for (uint32_t S : BlockStart)
    if (S < N)
      DF.Insts[S].Flags |= DIFlagSegStart;
  uint32_t First = 0;
  for (uint32_t K = 0; K != N; ++K) {
    DecodedInst &DI = DF.Insts[K];
    if (DI.Flags & DIFlagSegStart)
      First = K;
    if (DI.D < DecodedOp::Call || DI.D > DecodedOp::RetVoid)
      continue;
    DI.Imm = static_cast<int64_t>(Segs.size());
    Segs.push_back({DF.Id, First, K});
    if (K + 1 != N)
      DF.Insts[K + 1].Flags |= DIFlagSegStart; // resumes after a call
  }
}

/// Greedy left-to-right superinstruction pass. A pair fuses only when the
/// second instruction is not a block start (branches only ever target block
/// starts, so control can never enter the middle of a fused pair). The
/// second slot stays in the stream, dead, keeping branch targets stable; it
/// also keeps its opcode and flags, and a rebuilt first slot keeps the
/// first operation's, so the segment counts read slot by slot stay exact.
/// Pairs involving a memory operation only fuse when decoding without a
/// profile sink; all other pairs fuse identically either way.
void fuseSuperinstructions(DecodedFunction &DF,
                           const std::vector<uint32_t> &BlockStart,
                           bool Profiling) {
  std::vector<bool> IsStart(DF.Insts.size(), false);
  for (uint32_t S : BlockStart)
    if (S < DF.Insts.size())
      IsStart[S] = true;
  for (size_t K = 0; K + 1 < DF.Insts.size(); ++K) {
    if (IsStart[K + 1])
      continue;
    DecodedInst &I0 = DF.Insts[K];
    const DecodedInst &I1 = DF.Insts[K + 1];
    // Cmp reg, a, b; Br reg -> branch directly on the compare.
    if (I1.D == DecodedOp::Br && I1.A == I0.Result && I0.Result != NoReg) {
      DecodedOp F = cmpBrOp(I0.D);
      if (F != DecodedOp::kNumDecodedOps) {
        I0.D = F; // Op stays the compare; the handler closes the segment
        I0.T0 = I1.T0;
        I0.T1 = I1.T1;
        I0.Imm = I1.Imm; // the Br's segment id
        ++K;
        continue;
      }
    }
    // LoadI reg, imm; op .., reg, .. -> fold the constant load in. The
    // handler still writes the constant's register first, so reuse of the
    // constant later (or as both operands) behaves exactly as unfused.
    if (I0.D == DecodedOp::LoadI) {
      DecodedOp F = loadIOp(I1.D);
      if (F != DecodedOp::kNumDecodedOps &&
          (I1.A == I0.Result || I1.B == I0.Result)) {
        DecodedInst NI = I1;
        NI.D = F;
        NI.Op = Opcode::LoadI; // the slot counts the LoadI
        NI.Flags = I0.Flags;
        NI.T0 = I0.Result;
        NI.Imm = I0.Imm;
        I0 = NI;
        ++K;
        continue;
      }
    }
    // LoadI/Copy reg, ..; Jmp -> the block-closing constant or phi move SSA
    // destruction leaves before an unconditional jump.
    if ((I0.D == DecodedOp::LoadI || I0.D == DecodedOp::Copy) &&
        I1.D == DecodedOp::Jmp) {
      I0.D = I0.D == DecodedOp::LoadI ? DecodedOp::LoadIJmp : DecodedOp::CopyJmp;
      I0.T0 = I1.T0; // Op stays; the handler closes the segment
      I0.B = static_cast<Reg>(I1.Imm); // the Jmp's segment id (B is free)
      ++K;
      continue;
    }
    // Add/Mul rX, a, b; Add rD, rY, rX -> the address-arithmetic chain of
    // array indexing (scale, then displace).
    if ((I0.D == DecodedOp::Add || I0.D == DecodedOp::Mul) &&
        I1.D == DecodedOp::Add && I0.Result != NoReg &&
        (I1.A == I0.Result || I1.B == I0.Result)) {
      const Reg Other = I1.A == I0.Result ? I1.B : I1.A;
      const DecodedOp F =
          I0.D == DecodedOp::Add ? DecodedOp::AddAdd : DecodedOp::MulAdd;
      DecodedInst NI = I0; // first op's operands and opcode stay
      NI.D = F;
      NI.T0 = I0.Result;
      NI.T1 = Other;
      NI.Result = I1.Result;
      I0 = NI;
      ++K;
      continue;
    }
    // Add rX, a, b; Load rD, [rX] -> compute the address and load in one
    // handler. Skipped when profiling: the load's per-step attribution
    // needs the standard prologue.
    if (!Profiling && I0.D == DecodedOp::Add && I1.D == DecodedOp::PtrLoad &&
        I1.A == I0.Result && I0.Result != NoReg) {
      DecodedInst NI;
      NI.D = I1.Op == Opcode::ConstLoad ? DecodedOp::AddConstLoad
                                        : DecodedOp::AddLoad;
      NI.Op = Opcode::Add; // the slot counts the Add
      NI.Flags = I0.Flags;
      NI.MemTy = I1.MemTy;
      NI.Result = I1.Result;
      NI.A = I0.A;
      NI.B = I0.B;
      NI.T0 = I0.Result;
      I0 = NI;
      ++K;
      continue;
    }
    // Add rX, a, b; Store [rX], v -> compute the address and store in one
    // handler; the value register rides in Result (stores have none). Same
    // profiling gate as the load form.
    if (!Profiling && I0.D == DecodedOp::Add && I1.D == DecodedOp::PtrStore &&
        I1.A == I0.Result && I0.Result != NoReg) {
      DecodedInst NI;
      NI.D = DecodedOp::AddStore;
      NI.Op = Opcode::Add; // the slot counts the Add
      NI.Flags = I0.Flags;
      NI.MemTy = I1.MemTy;
      NI.Result = I1.B; // the stored value
      NI.A = I0.A;
      NI.B = I0.B;
      NI.T0 = I0.Result;
      I0 = NI;
      ++K;
      continue;
    }
    // FMul rX, a, b; FAdd/FSub rD, .., .. -> the multiply-accumulate core
    // of the float kernels. The variant records which operand the product
    // was, preserving the exact host evaluation order.
    if (I0.D == DecodedOp::FMul && I0.Result != NoReg &&
        (I1.D == DecodedOp::FAdd || I1.D == DecodedOp::FSub) &&
        (I1.A == I0.Result || I1.B == I0.Result)) {
      const bool ProdFirst = I1.A == I0.Result;
      DecodedInst NI = I0; // multiply operands and opcode stay
      NI.D = I1.D == DecodedOp::FAdd
                 ? (ProdFirst ? DecodedOp::FMulFAddA : DecodedOp::FMulFAddB)
                 : (ProdFirst ? DecodedOp::FMulFSubA : DecodedOp::FMulFSubB);
      NI.T0 = I0.Result;
      NI.T1 = ProdFirst ? I1.B : I1.A;
      NI.Result = I1.Result;
      I0 = NI;
      ++K;
      continue;
    }
  }
}

} // namespace

DecodedModule rpcc::decodeModule(const Module &M, const GlobalLayout &GL,
                                 const std::vector<FrameLayout> &Layouts,
                                 const DenseProfileSink *Sink, bool Fuse) {
  DecodedModule DM;
  DM.Funcs.resize(M.numFunctions());
  for (FuncId FI = 0; FI != M.numFunctions(); ++FI) {
    const Function &F = *M.function(FI);
    DecodedFunction &DF = DM.Funcs[FI];
    DF.Id = FI;
    DF.Builtin = F.builtin();
    DF.ParamRegs = F.paramRegs();
    DF.NumRegs = static_cast<uint32_t>(F.numRegs());
    DF.FrameSize = Layouts[FI].Size;
    if (F.isBuiltin() || F.numBlocks() == 0)
      continue;
    DF.HasBody = true;

    // Blocks concatenate in id order; every verified block ends in a
    // terminator, so the flat stream never falls through a block boundary.
    std::vector<uint32_t> BlockStart(F.numBlocks(), 0);
    uint32_t N = 0;
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      BlockStart[B] = N;
      N += static_cast<uint32_t>(F.block(B)->size());
    }
    DF.Insts.reserve(N);
    if (Sink)
      DF.ProfSlots.reserve(N);
    for (BlockId B = 0; B != F.numBlocks(); ++B)
      for (const auto &I : F.block(B)->insts()) {
        uint32_t ProfSlot = 0;
        DF.Insts.push_back(decodeInst(M, GL, Layouts[FI], Sink, F, B, *I,
                                      BlockStart, DF, ProfSlot));
        if (Sink)
          DF.ProfSlots.push_back(ProfSlot);
      }
    markSegments(DF, BlockStart, DM.Segments);
    if (Fuse)
      fuseSuperinstructions(DF, BlockStart, Sink != nullptr);
    DF.BlockStarts = std::move(BlockStart);
  }
  return DM;
}
