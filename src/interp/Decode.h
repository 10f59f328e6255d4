//===- interp/Decode.h - Pre-decoded execution format -----------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast-path engine's one-time per-module lowering. Each function is
/// flattened into one dense DecodedInst array: branch targets become
/// instruction indices, global tag addresses and frame offsets are baked
/// into operands, callees are FuncIds, and (under profiling) every memory
/// operation carries its pre-packed profile slot. The step loop then runs
/// with zero hash lookups and no per-block indirection.
///
/// Decoding also cuts each function into counting segments: a segment runs
/// from a block start, or from the slot after a call, through the next
/// Br/Jmp/RetVal/RetVoid/Call/CallIndirect. Its first slot carries
/// DIFlagSegStart and its closing instruction carries the module-wide
/// segment id, so the fast engines count one hit per executed segment and
/// expand the hits into per-opcode, load/store and per-function counts once
/// the run is over (see docs/INTERPRETER.md).
///
/// Decoding is observationally pure: it never faults and never counts.
/// IL conditions the reference (switch) engine only discovers at run time —
/// a scalar reference to an unallocated global, a foreign frame local, the
/// address of a heap summary tag, a phi that survived SSA destruction —
/// lower to DecodedOp::Fault records carrying the exact message the switch
/// engine would raise, so the two engines stay byte-identical even on
/// faulting programs.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_INTERP_DECODE_H
#define RPCC_INTERP_DECODE_H

#include "ir/Module.h"
#include "obs/TagProfile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rpcc {

// Address-space layout of the simulated machine. Both engines share it;
// decode bakes absolute addresses against the same constants the switch
// engine computes per step.
inline constexpr uint64_t InterpGlobalBase = 0x0000'0000'0000'1000ull;
inline constexpr uint64_t InterpStackBase = 0x0000'1000'0000'0000ull;
inline constexpr uint64_t InterpHeapBase = 0x0000'2000'0000'0000ull;
inline constexpr uint64_t InterpFuncBase = 0x7F00'0000'0000'0000ull;

/// Per-function frame layout: byte offsets of local/spill tags. Offsets is
/// ascending by tag id (binary-searched by the switch engine's tagAddress);
/// Spans is the reverse mapping (ascending start offsets), used by the tag
/// profiler to resolve a runtime stack address back to the tag owning it.
struct FrameLayout {
  std::vector<std::pair<TagId, uint32_t>> Offsets;
  std::vector<std::pair<uint32_t, TagId>> Spans;
  uint32_t Size = 0;

  /// Byte offset of \p T in this frame, or nullptr if the tag lives in some
  /// other function's frame.
  const uint32_t *offsetOf(TagId T) const;
};

/// Frame layouts for every function, indexed by FuncId. Built once from the
/// per-owner tag lists (Module::tagsOwnedBy), not by scanning the module tag
/// table per function.
std::vector<FrameLayout> computeFrameLayouts(const Module &M);

/// The global segment: initialized image, a dense TagId-indexed address
/// table, and the ascending (address, tag) spans the profiler resolves
/// pointer operands against.
struct GlobalLayout {
  static constexpr uint64_t NoAddr = ~uint64_t(0);

  std::vector<uint8_t> Image;
  /// Absolute address per tag id; NoAddr for tags without global storage.
  std::vector<uint64_t> AddrOfTag;
  std::vector<std::pair<uint64_t, TagId>> Spans;

  uint64_t addressOf(TagId T) const {
    return T < AddrOfTag.size() ? AddrOfTag[T] : NoAddr;
  }
};

GlobalLayout computeGlobalLayout(const Module &M);

/// Resolved opcode of one decoded instruction. Address-mode variants split
/// the tag-addressed operations the switch engine re-resolves every step:
/// *Abs carry a baked absolute address, *Frame a baked frame offset.
enum class DecodedOp : uint8_t {
  Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  FAdd, FSub, FMul, FDiv,
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
  Neg, Not, FNeg, IntToFp, FpToInt,
  LoadI, LoadF, Copy,
  LoadAddrAbs, LoadAddrFrame,
  ScalarLoadAbs, ScalarLoadFrame,
  ScalarStoreAbs, ScalarStoreFrame,
  PtrLoad,  ///< Load and ConstLoad: address in a register
  PtrStore,
  Call, CallIndirect,
  Br, Jmp, RetVal, RetVoid,
  Fault, ///< raises a pre-formatted message (decode-time diagnosed IL)
  // Superinstructions: adjacent pairs fused at decode time when the second
  // instruction is not a branch target. Both original operations execute
  // and count exactly as if unfused; neither touches memory, so the fusion
  // is invisible to the profiler. The dead second slot stays in the stream
  // to keep branch-target indices stable.
  CmpEqBr, CmpNeBr, CmpLtBr, CmpLeBr, CmpGtBr, CmpGeBr,
  FCmpEqBr, FCmpNeBr, FCmpLtBr, FCmpLeBr, FCmpGtBr, FCmpGeBr,
  LoadIAdd, LoadIMul, LoadISub, LoadICmpEq, LoadICmpNe, LoadICmpLt,
  AddAdd, MulAdd, ///< address arithmetic chains; T1 = the outer Add's other operand
  /// Add computing an address consumed by the adjacent pointer load. Only
  /// fused when decoding without a profile sink (the load needs per-step
  /// attribution otherwise).
  AddLoad, AddConstLoad,
  AddStore, ///< Add feeding the adjacent pointer store's address; same gate
  /// FMul feeding the adjacent FAdd/FSub. The A/B suffix records which
  /// operand of the outer op the product was (FP NaN payloads make even
  /// FAdd order-sensitive, and FSub is not commutative at all).
  FMulFAddA, FMulFAddB, FMulFSubA, FMulFSubB,
  LoadIJmp, CopyJmp, ///< block-closing constant/phi move folded into the Jmp
  kNumDecodedOps
};

/// DecodedInst::Flags bits: the counting facts of a slot, precomputed from
/// its original opcode.
enum : uint8_t {
  DIFlagLoad = 1 << 0,     ///< counts as a Figure 7 load
  DIFlagStore = 1 << 1,    ///< counts as a Figure 6 store
  DIFlagMem = 1 << 2,      ///< profiled when a sink is attached
  DIFlagPtrProf = 1 << 3,  ///< profile tag resolved from the runtime address
  DIFlagSegStart = 1 << 4, ///< first slot of a counting segment
};

/// One pre-decoded instruction: fixed operand slots, no heap indirection.
/// Exactly 32 bytes, so two instructions share a cache line; the profile
/// slot of memory operations lives in DecodedFunction::ProfSlots.
struct DecodedInst {
  DecodedOp D = DecodedOp::Fault;
  /// Original opcode of the slot's (first) operation, kept so
  /// OpCounters::ByOpcode matches the switch engine exactly (several
  /// opcodes share one DecodedOp and vice versa). The dead second slot of a
  /// fused pair keeps its own, so counting slot by slot stays exact.
  Opcode Op = Opcode::kNumOpcodes;
  MemType MemTy = MemType::I64;
  uint8_t Flags = 0;
  Reg Result = NoReg;
  Reg A = NoReg; ///< first operand; arg count for Call; callee reg for IJSR
  /// Second operand; segment id for the fused LoadIJmp/CopyJmp.
  Reg B = NoReg;
  /// LoadI immediate (also for LoadI* fusions); LoadF bit pattern; baked
  /// absolute address (*Abs) or frame offset (*Frame), LoadAddr
  /// displacement already folded in; index into DecodedFunction::FaultMsgs
  /// for Fault; segment id for a closing instruction (and Cmp*Br).
  int64_t Imm = 0;
  /// Br taken / Jmp target instruction index (Cmp*Br too); Callee FuncId
  /// for Call; argument pool base for CallIndirect; destination register of
  /// the folded constant for LoadI* fusions.
  uint32_t T0 = 0;
  /// Br fallthrough instruction index (Cmp*Br too); argument pool base for
  /// Call; argument count for CallIndirect.
  uint32_t T1 = 0;
};

static_assert(sizeof(DecodedInst) == 32,
              "DecodedInst must stay two-per-cache-line");

/// One function lowered to a flat instruction stream. Blocks are
/// concatenated in block-id order; entry is instruction 0.
struct DecodedFunction {
  std::vector<DecodedInst> Insts;
  /// Pre-packed DenseProfileSink slot per instruction, parallel to Insts:
  /// the full slot for scalar-addressed memory ops, the row base (slot of
  /// NoTag) for pointer-based ones, 0 elsewhere. Empty unless the module
  /// was decoded with a sink attached.
  std::vector<uint32_t> ProfSlots;
  /// Call argument registers, referenced by (pool base, count) operands.
  std::vector<Reg> ArgPool;
  /// Messages of DecodedOp::Fault records.
  std::vector<std::string> FaultMsgs;
  std::vector<Reg> ParamRegs;
  /// Instruction index of every block's first instruction, in block-id
  /// order (ascending). Exposes the block structure to the JIT tier: block
  /// boundaries are its register-residency points, and branch targets are
  /// exactly this set. Populated for fused and unfused streams alike
  /// (indices are identical by construction — fusion never moves or
  /// removes a slot).
  std::vector<uint32_t> BlockStarts;
  uint32_t NumRegs = 0;
  uint32_t FrameSize = 0;
  FuncId Id = NoFunc;
  BuiltinKind Builtin = BuiltinKind::None;
  bool HasBody = false;
};

/// One counting segment: slots [First, Last] of function Fn, Last being the
/// closing instruction (in the unfused stream; a fused Cmp*Br or
/// LoadIJmp/CopyJmp closes from the slot before it).
struct DecodedSegment {
  FuncId Fn = NoFunc;
  uint32_t First = 0;
  uint32_t Last = 0;
};

struct DecodedModule {
  std::vector<DecodedFunction> Funcs;
  /// Every function's counting segments, indexed by segment id.
  std::vector<DecodedSegment> Segments;
};

/// Lowers every function of \p M against the given layouts. \p Sink, when
/// non-null, must be initialized from the same module's ProfileMeta; memory
/// operations then carry pre-packed profile slots. \p Fuse controls the
/// superinstruction pass: the fast path wants it, the JIT decodes unfused so
/// its per-op templates (and the fast-path fallback frames) see only base
/// ops. Segments, their flags and ids are the same either way.
DecodedModule decodeModule(const Module &M, const GlobalLayout &GL,
                           const std::vector<FrameLayout> &Layouts,
                           const DenseProfileSink *Sink, bool Fuse = true);

} // namespace rpcc

#endif // RPCC_INTERP_DECODE_H
