//===- jit/JitEmitter.cpp - Optimizing x86-64 template emitter ------------===//
//
// Lowers decoded (unfused) instruction streams to native code. On top of the
// baseline templates this tier performs block-local host register residency
// (JitRegAlloc.h), superinstruction fusion re-derived from the unfused
// stream, segment counting, and relocatable code emission so compiled
// functions can be shared through the code cache.
//
// Register convention inside a compiled function:
//   callee-saved pins (live across shim calls):
//     r15  JitRT* (cells, shims)      rbx  &RegArena[RegBase] (the frame's R)
//     r12  Counters.Total             r13  StackMem.data() + FrameOff
//     r14  &SegHits[0]                rbp  unused (not saved)
//     [rsp]    RegBase                [rsp+8]  FrameOff
//   caller-saved:
//     rax/rcx/rdx, xmm0/xmm1          template scratch
//     rsi/rdi/r8-r11                  block-residency pool (JitRegAlloc);
//                                     written back before and reloaded after
//                                     every C call out of the template body
// rbx/r13 are rebased from JitRT after every call (the arenas may have
// reallocated); r12 is flushed to JitRT::TotalCell around calls and exits,
// exactly where the fast path flushes its Total local.
//
// Counting. Each step runs the fast path's single compare (Machine::
// stepStop): `inc r12; cmp r12, [r15+Stop]; jb +5; call StubStepSlow`.
// Only reaching JitRT::StopCell calls the stub, whose shim runs the
// step-limit check, then the 64K wall-deadline poll, and moves the cell on.
// Everything else is counted per counting segment (Decode.h): the
// segment's closing instruction runs one `inc qword [r14 + id*8]` on the
// hit counter the fast path shares, and Machine expands the hits after the
// run. A segment records its entry Total and first instruction index in
// JitRT cells, so a fault path can hand the number of steps it ran to the
// flush shim, which settles them through the settle routine the fast path
// uses — at the precise step index the fast path would have counted to.
// Fault taxonomy: shim faults (memory, div/rem, decode-time Fault records)
// are "prologue-complete" — the faulting instruction is fully counted,
// like both interpreters count it; step-limit and deadline faults exclude
// the faulting step (the interpreters raise before counting it). A fault raised by a callee leaves
// nothing to settle: the call closed its segment before the shim ran.
//
// Relocation. Emitted code bakes no per-Machine pointers: the hit counters,
// the global image, and heap/stack segments are reached through JitRT
// cells, and DecodedFunction-relative operands (argument pools, fault
// messages) are passed to the shims as offsets resolved via JitRT::CurFn.
// What IS baked — immediates, profile slots, frame offsets, segment ids,
// the global image size, the function id — is covered by the code-cache
// key.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "jit/JitRegAlloc.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if RPCC_JIT_AVAILABLE
#include <sys/mman.h>
#endif

using namespace rpcc;

bool rpcc::jitSupported() { return RPCC_JIT_AVAILABLE != 0; }

JitProgram::JitProgram(size_t NumFuncs, uint64_t GlobalSize, bool Profiled)
    : GlobalSize(GlobalSize), Profiled(Profiled), Entries(NumFuncs),
      Declined(NumFuncs) {
  // vector value-initialization of std::atomic is only guaranteed zeroing
  // from C++20; make the initial state explicit.
  for (auto &E : Entries)
    E.store(nullptr, std::memory_order_relaxed);
  for (auto &D : Declined)
    D.store(0, std::memory_order_relaxed);
}

JitProgram::~JitProgram() {
#if RPCC_JIT_AVAILABLE
  for (const Chunk &C : Chunks)
    ::munmap(C.Mem, C.Size);
#endif
}

#if !RPCC_JIT_AVAILABLE

JitProgram::Entry JitProgram::compile(const DecodedFunction &DF,
                                      uint64_t &OutCompileUs) {
  OutCompileUs = 0;
  if (DF.Id < Declined.size())
    Declined[DF.Id].store(1, std::memory_order_release);
  return nullptr;
}

#else // RPCC_JIT_AVAILABLE

static_assert(std::is_standard_layout_v<JitRT>,
              "emitted code addresses JitRT by offsetof");

namespace {

enum : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/// Pool slot -> host register for block residency (JitRegAlloc slots).
constexpr uint8_t PoolReg[JitRegPoolSize] = {RSI, RDI, R8, R9, R10, R11};

/// Raw little-endian x86-64 encoder over a byte vector. Only the handful of
/// forms the templates need; every emit helper encodes REX/ModRM/SIB itself
/// so the call sites read like assembly.
class Asm {
public:
  explicit Asm(std::vector<uint8_t> &Code) : C(Code) {}

  size_t pos() const { return W; }
  /// Guarantees \p N bytes of unchecked headroom past the cursor. Called
  /// once per template, so b() is a single store — compile time is on the
  /// critical path of lazy first calls and a per-byte capacity check
  /// dominated it.
  void ensure(size_t N) {
    if (W + N > C.size())
      C.resize(std::max(C.size() * 2, W + N));
  }
  void b(uint8_t X) { C[W++] = X; }
  void d32(uint32_t X) {
    for (int I = 0; I != 4; ++I)
      b(static_cast<uint8_t>(X >> (I * 8)));
  }
  void d64(uint64_t X) {
    for (int I = 0; I != 8; ++I)
      b(static_cast<uint8_t>(X >> (I * 8)));
  }
  void patch32(size_t At, uint32_t X) {
    for (int I = 0; I != 4; ++I)
      C[At + I] = static_cast<uint8_t>(X >> (I * 8));
  }

  /// [Base + Disp] memory operand for register field \p Reg (both full
  /// 4-bit numbers). No index registers; RSP-encoded bases get the trivial
  /// SIB, RBP-encoded bases get a forced displacement.
  void mem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    uint8_t RegLow = Reg & 7, BaseLow = Base & 7;
    bool Sib = BaseLow == 4;
    uint8_t Mod = (Disp == 0 && BaseLow != 5) ? 0
                  : (Disp >= -128 && Disp <= 127) ? 1
                                                  : 2;
    b(static_cast<uint8_t>(Mod << 6 | RegLow << 3 | (Sib ? 4 : BaseLow)));
    if (Sib)
      b(0x24);
    if (Mod == 1)
      b(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      d32(static_cast<uint32_t>(Disp));
  }
  void rex(bool W, uint8_t Reg, uint8_t Base) {
    b(static_cast<uint8_t>(0x40 | (W << 3) | ((Reg >> 3) << 2) |
                           (Base >> 3)));
  }
  void modrmRR(uint8_t Reg, uint8_t Rm) {
    b(static_cast<uint8_t>(0xC0 | (Reg & 7) << 3 | (Rm & 7)));
  }

  // mov r64, [base+disp] / mov [base+disp], r64
  void movRM(uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(0x8B); mem(R, Base, D);
  }
  void movMR(uint8_t Base, int32_t D, uint8_t R) {
    rex(1, R, Base); b(0x89); mem(R, Base, D);
  }
  void movRR(uint8_t Dst, uint8_t Src) {
    rex(1, Src, Dst); b(0x89); modrmRR(Src, Dst);
  }
  /// mov r64, imm (movabs, or the sign-extended imm32 form when it fits).
  void movRI(uint8_t R, uint64_t V) {
    int64_t S = static_cast<int64_t>(V);
    if (S >= INT32_MIN && S <= INT32_MAX) {
      rex(1, 0, R); b(0xC7); modrmRR(0, R); d32(static_cast<uint32_t>(V));
    } else {
      rex(1, 0, R); b(static_cast<uint8_t>(0xB8 | (R & 7))); d64(V);
    }
  }
  /// mov r32, imm32 (zero-extends; for shim arguments).
  void movRI32(uint8_t R, uint32_t V) {
    if (R >= 8)
      b(0x41);
    b(static_cast<uint8_t>(0xB8 | (R & 7)));
    d32(V);
  }
  /// mov dword [base+disp], imm32 (zero-extends into the 64-bit cell when
  /// the cell's upper half is already zero — JitRT keeps those cells
  /// 32-bit-written only).
  void movMI32(uint8_t Base, int32_t D, uint32_t V) {
    if (Base >= 8)
      b(0x41);
    b(0xC7); mem(0, Base, D); d32(V);
  }
  // Integer ALU, reg <- reg OP [base+disp]. Opcodes: add 03, sub 2B,
  // and 23, or 0B, xor 33, cmp 3B.
  void aluRM(uint8_t Opc, uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(Opc); mem(R, Base, D);
  }
  // Same opcodes, reg <- reg OP reg.
  void aluRR(uint8_t Opc, uint8_t Dst, uint8_t Src) {
    rex(1, Dst, Src); b(Opc); modrmRR(Dst, Src);
  }
  /// Group-1 ALU with immediate: \p Ext is the /digit (add 0, sub 5, cmp 7).
  void aluRI(uint8_t Ext, uint8_t R, int32_t Imm) {
    rex(1, 0, R);
    if (Imm >= -128 && Imm <= 127) {
      b(0x83); modrmRR(Ext, R); b(static_cast<uint8_t>(Imm));
    } else {
      b(0x81); modrmRR(Ext, R); d32(static_cast<uint32_t>(Imm));
    }
  }
  void imulRM(uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(0x0F); b(0xAF); mem(R, Base, D);
  }
  void imulRR(uint8_t Dst, uint8_t Src) {
    rex(1, Dst, Src); b(0x0F); b(0xAF); modrmRR(Dst, Src);
  }
  /// imul r64, r64, imm32.
  void imulRRI(uint8_t Dst, uint8_t Src, int32_t Imm) {
    rex(1, Dst, Src); b(0x69); modrmRR(Dst, Src);
    d32(static_cast<uint32_t>(Imm));
  }
  void incM(uint8_t Base, int32_t D) {
    rex(1, 0, Base); b(0xFF); mem(0, Base, D);
  }
  void decR(uint8_t R) { rex(1, 0, R); b(0xFF); modrmRR(1, R); }
  void leaRM(uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(0x8D); mem(R, Base, D);
  }
  void testRR(uint8_t A, uint8_t B2) {
    rex(1, B2, A); b(0x85); modrmRR(B2, A);
  }
  void setcc(uint8_t CC, uint8_t R8Low) { // al/cl only, no REX
    b(0x0F); b(static_cast<uint8_t>(0x90 | CC)); modrmRR(0, R8Low);
  }
  void movzxEaxAl() { b(0x0F); b(0xB6); modrmRR(0, 0); }
  void movzxEcxCl() { b(0x0F); b(0xB6); modrmRR(RCX, RCX); }
  void callM(uint8_t Base, int32_t D) { // call qword [base+disp]
    if (Base >= 8)
      b(0x41);
    b(0xFF); mem(2, Base, D);
  }
  // SSE scalar double. movsd load F2 0F 10, store F2 0F 11; ALU opcodes:
  // addsd 58, mulsd 59, subsd 5C, divsd 5E; ucomisd is 66 0F 2E.
  void sseRM(uint8_t Pfx, uint8_t Opc, uint8_t X, uint8_t Base, int32_t D) {
    b(Pfx);
    if (Base >= 8)
      rex(0, X, Base);
    b(0x0F); b(Opc); mem(X, Base, D);
  }
  void sseRR(uint8_t Pfx, uint8_t Opc, uint8_t X, uint8_t X2) {
    b(Pfx); b(0x0F); b(Opc); modrmRR(X, X2);
  }
  void movsdRM(uint8_t X, uint8_t Base, int32_t D) {
    sseRM(0xF2, 0x10, X, Base, D);
  }
  void movsdMR(uint8_t Base, int32_t D, uint8_t X) {
    sseRM(0xF2, 0x11, X, Base, D);
  }
  /// movq xmm <- r64 / r64 <- xmm (the residency bridge for FP templates).
  void movqXR(uint8_t X, uint8_t R) {
    b(0x66); rex(1, X, R); b(0x0F); b(0x6E); modrmRR(X, R);
  }
  void movqRX(uint8_t R, uint8_t X) {
    b(0x66); rex(1, X, R); b(0x0F); b(0x7E); modrmRR(X, R);
  }

private:
  std::vector<uint8_t> &C;
  size_t W = 0; ///< write cursor; C.size() is capacity, pos() is length
};

/// Pending rel32 to an instruction-index / block / stub label.
struct Fixup {
  size_t Pos;     ///< offset of the 4 rel bytes
  uint32_t Label;
};

// Stub labels appended after the instruction, block-body, and loop-thunk
// labels. Order matters for the fall-throughs noted in emit().
enum : uint32_t {
  StubFaultLimit = 0, ///< flush excluding the faulting step, then unwind
  StubStepSlow = 1,   ///< cold step check (reached by call, pool preserved)
  StubFaultP = 2,     ///< flush including the faulting step, then unwind
  StubFault = 3,      ///< zero the return value, fall into the epilogue
  StubEpi = 4,
  NumStubs = 5,
};

constexpr int32_t OffTotal = offsetof(JitRT, TotalCell);
constexpr int32_t OffStop = offsetof(JitRT, StopCell);
constexpr int32_t OffRegArena = offsetof(JitRT, RegArenaData);
constexpr int32_t OffStackData = offsetof(JitRT, StackData);
constexpr int32_t OffFault = offsetof(JitRT, FaultCell);
constexpr int32_t OffSegHits = offsetof(JitRT, SegHits);
constexpr int32_t OffGlobalData = offsetof(JitRT, GlobalData);
constexpr int32_t OffHeapData = offsetof(JitRT, HeapData);
constexpr int32_t OffHeapSize = offsetof(JitRT, HeapSize);
constexpr int32_t OffStackSize = offsetof(JitRT, StackSize);
constexpr int32_t OffBlockSnap = offsetof(JitRT, BlockSnap);
constexpr int32_t OffBlockFirst = offsetof(JitRT, BlockFirst);
constexpr int32_t OffCurFn = offsetof(JitRT, CurFn);

class FunctionEmitter {
public:
  FunctionEmitter(const DecodedFunction &DF, uint64_t GlobalSize,
                  bool Profiled, const RegAllocResult &RA, Asm &A)
      : DF(DF), GlobalSize(GlobalSize), Profiled(Profiled), RA(RA), A(A) {}

  /// Emits the whole function; returns false when some instruction is
  /// outside the template set or a fixup overflows rel32.
  bool emit();

  size_t fusedPairs() const { return NFused; }

private:
  // -- Label plumbing ---------------------------------------------------------
  void label(uint32_t L) { LabelOff[L] = A.pos(); }
  void jmpTo(uint32_t L) { A.b(0xE9); ref(L); }
  void jccTo(uint8_t CC, uint32_t L) {
    A.b(0x0F); A.b(static_cast<uint8_t>(0x80 | CC)); ref(L);
  }
  void callTo(uint32_t L) { A.b(0xE8); ref(L); }
  void ref(uint32_t L) {
    Fixups.push_back({A.pos(), L});
    A.d32(0);
  }
  uint32_t bodyLabel(uint32_t B) const { return N + B; }
  uint32_t thunkLabel(uint32_t B) const { return N + NB + B; }
  uint32_t stub(uint32_t S) const { return N + 2 * NB + S; }

  // Short forward branches inside one template, patched immediately when the
  // target is reached (the label/Fixup machinery is for inter-instruction
  // control flow).
  size_t jccFwd(uint8_t CC) {
    A.b(0x0F); A.b(static_cast<uint8_t>(0x80 | CC));
    size_t P = A.pos();
    A.d32(0);
    return P;
  }
  size_t jmpFwd() {
    A.b(0xE9);
    size_t P = A.pos();
    A.d32(0);
    return P;
  }
  void bindFwd(size_t P) {
    A.patch32(P, static_cast<uint32_t>(A.pos() - (P + 4)));
  }

  // -- Residency helpers ------------------------------------------------------
  int32_t regOff(Reg R) const { return static_cast<int32_t>(R) * 8; }
  int slotOf(Reg R) const { return Cur ? Cur->slotOf(R) : -1; }
  /// Value of IL register \p R into host register \p Dst.
  void loadGP(uint8_t Dst, Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.movRR(Dst, PoolReg[S]);
    else
      A.movRM(Dst, RBX, regOff(R));
  }
  /// Defines IL register \p R from host register \p Src: the resident copy
  /// when mapped (memory catches up at the next writeback), memory
  /// otherwise.
  void storeFromGP(Reg R, uint8_t Src) {
    int S = slotOf(R);
    if (S >= 0)
      A.movRR(PoolReg[S], Src);
    else
      A.movMR(RBX, regOff(R), Src);
  }
  void aluWithReg(uint8_t Opc, uint8_t Dst, Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.aluRR(Opc, Dst, PoolReg[S]);
    else
      A.aluRM(Opc, Dst, RBX, regOff(R));
  }
  void imulWithReg(uint8_t Dst, Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.imulRR(Dst, PoolReg[S]);
    else
      A.imulRM(Dst, RBX, regOff(R));
  }
  void loadX0(Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.movqXR(0, PoolReg[S]);
    else
      A.movsdRM(0, RBX, regOff(R));
  }
  void storeX0(Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.movqRX(PoolReg[S], 0);
    else
      A.movsdMR(RBX, regOff(R), 0);
  }
  /// xmm0 <- xmm0 OP value(R), SSE opcode \p Opc (prefix F2).
  void sseWithReg(uint8_t Opc, Reg R) {
    int S = slotOf(R);
    if (S >= 0) {
      A.movqXR(1, PoolReg[S]);
      A.sseRR(0xF2, Opc, 0, 1);
    } else {
      A.sseRM(0xF2, Opc, 0, RBX, regOff(R));
    }
  }
  /// ucomisd value(First), value(Second).
  void ucomisdRegs(Reg First, Reg Second) {
    loadX0(First);
    int S = slotOf(Second);
    if (S >= 0) {
      A.movqXR(1, PoolReg[S]);
      A.sseRR(0x66, 0x2E, 0, 1);
    } else {
      A.sseRM(0x66, 0x2E, 0, RBX, regOff(Second));
    }
  }
  /// Establishes residency at block entry / after a C call clobbered the
  /// caller-saved pool.
  void reloadAll() {
    if (!Cur)
      return;
    for (unsigned S = 0; S != Cur->NumSlots; ++S)
      A.movRM(PoolReg[S], RBX, regOff(Cur->Slots[S].R));
  }
  /// Retires residency: store statically-written slots back to the memory
  /// register file. Emits only movs, so it is flag-transparent (terminators
  /// rely on that to write back between a compare and its jcc).
  void writeback() {
    if (!Cur)
      return;
    for (unsigned S = 0; S != Cur->NumSlots; ++S)
      if (Cur->Slots[S].Written)
        A.movMR(RBX, regOff(Cur->Slots[S].R), PoolReg[S]);
  }

  // -- Segment-counting helpers -----------------------------------------------
  void segEnter(uint32_t First) {
    A.movMR(R15, OffBlockSnap, R12);
    A.movMI32(R15, OffBlockFirst, First);
  }
  /// Counts one hit of the segment closed by instruction \p Closer, whose
  /// Imm is the segment id. Clobbers flags; terminators emit it before
  /// their compare.
  void segFlush(uint32_t Closer) {
    const int64_t Id = DF.Insts[Closer].Imm;
    if (Id > INT32_MAX / 8) {
      IdOverflow = true; // the displacement cannot encode it: decline
      return;
    }
    A.incM(R14, static_cast<int32_t>(Id * 8));
  }

  void emitStepPrologue(const DecodedInst &DI, uint32_t I);
  void emitPostCall(Reg Result, uint32_t I);
  /// Cold-path shim call for a pointer/scalar memory access; the simulated
  /// address must be in RSI already and residency written back.
  void emitMemShimCall(const DecodedInst &DI, bool IsStore);
  /// Branch target for \p T: the residency-preserving loop thunk when \p T
  /// is this very block's head (single-block loop back edge), else the
  /// instruction label (which runs the block-entry sequence).
  uint32_t brTarget(uint32_t T) {
    if (Cur && T == CurStart && Cur->NumSlots) {
      ThunkNeeded[CurBlock] = 1;
      return thunkLabel(CurBlock);
    }
    return T;
  }

  /// Emits decoded instruction \p I (possibly fusing with I+1); returns the
  /// number of instruction slots consumed, 0 to decline the function.
  uint32_t emitInst(uint32_t I);
  uint32_t emitFused(uint32_t I); ///< 0 = no fusion applies
  void emitAccess(const DecodedInst &DI, uint8_t AddrReg, bool IsStore);

  const DecodedFunction &DF;
  const uint64_t GlobalSize;
  const bool Profiled;
  const RegAllocResult &RA;
  Asm &A;

  uint32_t N = 0, NB = 0;
  std::vector<size_t> LabelOff;
  std::vector<Fixup> Fixups;
  std::vector<uint8_t> IsBlockStart;
  std::vector<uint8_t> ThunkNeeded;

  const BlockRegMap *Cur = nullptr;
  uint32_t CurBlock = 0, CurStart = 0;
  size_t NFused = 0;
  bool IdOverflow = false;
};

void FunctionEmitter::emitStepPrologue(const DecodedInst &DI, uint32_t I) {
  // The fast path's single compare (Machine::stepStop):
  // inc r12; cmp r12, [r15+Stop]; jb +5; call StubStepSlow
  A.b(0x49); A.b(0xFF); A.b(0xC4);
  A.aluRM(0x3B, R12, R15, OffStop);
  A.b(0x72); A.b(0x05);
  callTo(stub(StubStepSlow));
  // Nothing else is counted per step — see the segment counting in the
  // file header. The profile shim still runs per memory step (the
  // sink's per-step attribution cannot be deferred); profiling disables
  // residency, so the clobbered pool is empty.
  if (Profiled && (DI.Flags & DIFlagMem)) {
    if (DI.Flags & DIFlagPtrProf)
      A.movRM(RCX, RBX, regOff(DI.A));
    else {
      A.b(0x31); A.b(0xC9); // xor ecx, ecx
    }
    A.movRR(RDI, R15);
    A.movRI32(RSI, DF.ProfSlots[I]);
    A.movRI32(RDX, DI.Flags);
    A.callM(R15, offsetof(JitRT, HelpProfile));
  }
}

/// After a call shim returns: reload Total, rebase the register-file and
/// host-frame pointers (the callee may have grown either arena), check the
/// fault mirror, restore CurFn (the callee overwrote it), open the
/// post-call counting segment, re-establish residency, store the result.
void FunctionEmitter::emitPostCall(Reg Result, uint32_t I) {
  A.movRM(R12, R15, OffTotal);
  A.movRM(RBX, R15, OffRegArena);
  A.movRM(RCX, RSP, 0); // RegBase
  A.b(0x48); A.b(0x8D); A.b(0x1C); A.b(0xCB); // lea rbx, [rbx+rcx*8]
  A.movRM(R13, R15, OffStackData);
  A.aluRM(0x03, R13, RSP, 8); // add r13, [rsp+8] (FrameOff)
  // cmp qword [r15+FaultCell], 0 ; jnz StubFault. Nothing to settle: the
  // call closed its segment before the shim ran.
  A.b(0x49); A.b(0x83); A.mem(7, R15, OffFault); A.b(0x00);
  jccTo(0x5, stub(StubFault));
  A.movMI32(R15, OffCurFn, DF.Id);
  segEnter(I + 1);
  reloadAll();
  if (Result != NoReg)
    storeFromGP(Result, RAX);
}

/// Tail of a memory-shim call: residency must already be written back and
/// the simulated address in RSI. Emits the call, the fault test (loads
/// return the fault flag in rdx, stores in rax), the residency reload, and
/// the loaded value's store.
void FunctionEmitter::emitMemShimCall(const DecodedInst &DI, bool IsStore) {
  if (IsStore) {
    loadGP(RDX, DI.B);
    A.movRI32(RCX, static_cast<uint32_t>(DI.MemTy));
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpStore));
    A.testRR(RAX, RAX);
    jccTo(0x5, stub(StubFaultP)); // jnz
    reloadAll();
  } else {
    A.movRI32(RDX, static_cast<uint32_t>(DI.MemTy));
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpLoad));
    A.testRR(RDX, RDX);
    jccTo(0x5, stub(StubFaultP));
    reloadAll();
    storeFromGP(DI.Result, RAX);
  }
}

/// Host access at [rcx] for an in-bounds fast path: RCX holds the host
/// address. Loads land in RAX and define Result; stores read the IL value
/// operand into RDX.
void FunctionEmitter::emitAccess(const DecodedInst &DI, uint8_t AddrReg,
                                 bool IsStore) {
  if (IsStore) {
    loadGP(RDX, DI.B);
    if (DI.MemTy == MemType::I8) {
      A.b(0x88); A.mem(RDX, AddrReg, 0); // mov [rcx], dl
    } else {
      A.movMR(AddrReg, 0, RDX);
    }
  } else {
    if (DI.MemTy == MemType::I8) {
      A.b(0x48); A.b(0x0F); A.b(0xB6); A.mem(RAX, AddrReg, 0); // movzx
    } else {
      A.movRM(RAX, AddrReg, 0);
    }
    storeFromGP(DI.Result, RAX);
  }
}

/// Superinstruction recognition, re-derived from the unfused stream at emit
/// time — the mirror of Decode.cpp's fuseSuperinstructions for the pairs
/// where a native template actually wins (flag reuse, immediate folding,
/// product residency). Both constituent steps run their full counting
/// prologue first, then the pair executes; the only divergence from the
/// fast path is post-fault register contents, which nothing can observe.
uint32_t FunctionEmitter::emitFused(uint32_t I) {
  if (I + 1 >= N || IsBlockStart[I + 1])
    return 0;
  const DecodedInst &DI = DF.Insts[I];
  const DecodedInst &NX = DF.Insts[I + 1];

  // --- compare + branch: reuse the compare's flags for the jcc ------------
  const bool IsIntCmp =
      DI.D >= DecodedOp::CmpEq && DI.D <= DecodedOp::CmpGe;
  const bool IsFpCmp =
      DI.D >= DecodedOp::FCmpEq && DI.D <= DecodedOp::FCmpGe;
  if ((IsIntCmp || IsFpCmp) && NX.D == DecodedOp::Br &&
      NX.A == DI.Result && DI.Result != NoReg) {
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    segFlush(I + 1); // clobbers flags; everything below preserves them
    uint8_t CC;
    if (IsIntCmp) {
      static const uint8_t IntCC[] = {0x4, 0x5, 0xC, 0xE, 0xF, 0xD};
      CC = IntCC[static_cast<int>(DI.D) - static_cast<int>(DecodedOp::CmpEq)];
      loadGP(RAX, DI.A);
      aluWithReg(0x3B, RAX, DI.B);
      A.setcc(CC, RCX);
      A.movzxEcxCl();
      storeFromGP(DI.Result, RCX); // the bool may have other readers
      writeback();
    } else if (DI.D == DecodedOp::FCmpEq || DI.D == DecodedOp::FCmpNe) {
      ucomisdRegs(DI.A, DI.B);
      if (DI.D == DecodedOp::FCmpEq) {
        A.setcc(0xB, RAX); // setnp al (ordered)
        A.setcc(0x4, RCX); // sete cl
        A.b(0x20); A.b(0xC8); // and al, cl — ZF = !bool
      } else {
        A.setcc(0xA, RAX); // setp al (NaN -> true)
        A.setcc(0x5, RCX); // setne cl
        A.b(0x08); A.b(0xC8); // or al, cl — ZF = !bool
      }
      A.movzxEaxAl();
      storeFromGP(DI.Result, RAX);
      writeback();
      CC = 0x5; // jnz: taken when the combined bool is nonzero
    } else {
      // Ordered-greater predicates are false on NaN because unordered sets
      // CF; Lt/Le compare with the operands swapped (same trick as the
      // unfused templates), and the jcc reuses the identical condition.
      const bool Swap = DI.D == DecodedOp::FCmpLt || DI.D == DecodedOp::FCmpLe;
      CC = (DI.D == DecodedOp::FCmpLt || DI.D == DecodedOp::FCmpGt) ? 0x7
                                                                    : 0x3;
      ucomisdRegs(Swap ? DI.B : DI.A, Swap ? DI.A : DI.B);
      A.setcc(CC, RCX);
      A.movzxEcxCl();
      storeFromGP(DI.Result, RCX);
      writeback();
    }
    jccTo(CC, brTarget(NX.T0));
    if (NX.T1 != I + 2)
      jmpTo(brTarget(NX.T1));
    ++NFused;
    return 2;
  }

  // --- LoadI + consumer: fold the constant into the ALU immediate ---------
  if (DI.D == DecodedOp::LoadI && DI.Imm >= INT32_MIN && DI.Imm <= INT32_MAX &&
      NX.B == DI.Result && NX.A != DI.Result && NX.Result != NoReg) {
    uint8_t AluExt = 0xFF, CmpCC = 0xFF;
    bool IsMul = false;
    switch (NX.D) {
    case DecodedOp::Add: AluExt = 0; break;
    case DecodedOp::Sub: AluExt = 5; break;
    case DecodedOp::Mul: IsMul = true; break;
    case DecodedOp::CmpEq: CmpCC = 0x4; break;
    case DecodedOp::CmpNe: CmpCC = 0x5; break;
    case DecodedOp::CmpLt: CmpCC = 0xC; break;
    default: return 0;
    }
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    const int32_t Imm = static_cast<int32_t>(DI.Imm);
    {
      // The constant's register is still defined (it may have readers
      // beyond the fused consumer), exactly like the fast path's handler.
      int S = slotOf(DI.Result);
      if (S >= 0) {
        A.movRI(PoolReg[S], static_cast<uint64_t>(DI.Imm));
      } else {
        A.movRI(RAX, static_cast<uint64_t>(DI.Imm));
        A.movMR(RBX, regOff(DI.Result), RAX);
      }
    }
    loadGP(RAX, NX.A);
    if (IsMul)
      A.imulRRI(RAX, RAX, Imm);
    else if (CmpCC != 0xFF)
      A.aluRI(7, RAX, Imm);
    else
      A.aluRI(AluExt, RAX, Imm);
    if (CmpCC != 0xFF) {
      A.setcc(CmpCC, RAX);
      A.movzxEaxAl();
    }
    storeFromGP(NX.Result, RAX);
    ++NFused;
    return 2;
  }

  // --- LoadI/Copy + Jmp: block-closing move folded into the jump ----------
  if ((DI.D == DecodedOp::LoadI || DI.D == DecodedOp::Copy) &&
      NX.D == DecodedOp::Jmp) {
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    if (DI.D == DecodedOp::LoadI) {
      int S = slotOf(DI.Result);
      if (S >= 0) {
        A.movRI(PoolReg[S], static_cast<uint64_t>(DI.Imm));
      } else {
        A.movRI(RAX, static_cast<uint64_t>(DI.Imm));
        A.movMR(RBX, regOff(DI.Result), RAX);
      }
    } else {
      loadGP(RAX, DI.A);
      storeFromGP(DI.Result, RAX);
    }
    segFlush(I + 1);
    writeback();
    if (NX.T0 != I + 2)
      jmpTo(brTarget(NX.T0));
    ++NFused;
    return 2;
  }

  // --- FMul + FAdd/FSub: keep the product resident in xmm0 ----------------
  if (DI.D == DecodedOp::FMul &&
      (NX.D == DecodedOp::FAdd || NX.D == DecodedOp::FSub) &&
      DI.Result != NoReg && (NX.A == DI.Result || NX.B == DI.Result)) {
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    loadX0(DI.A);
    sseWithReg(0x59, DI.B); // mulsd: product in xmm0
    storeX0(DI.Result);     // the product register may have other readers
    const uint8_t Opc = NX.D == DecodedOp::FAdd ? 0x58 : 0x5C;
    if (NX.A == DI.Result) {
      // product OP other — xmm0 already holds the left operand. When the
      // right operand aliases the product register, its location was just
      // refreshed by storeX0, so reading back through it is order-exact.
      sseWithReg(Opc, NX.B);
    } else {
      // other OP product — FP NaN payloads make even FAdd order-sensitive,
      // so the product moves over and the left operand loads fresh.
      A.sseRR(0xF2, 0x10, 1, 0); // movsd xmm1, xmm0
      loadX0(NX.A);
      A.sseRR(0xF2, Opc, 0, 1);
    }
    storeX0(NX.Result);
    ++NFused;
    return 2;
  }

  return 0;
}

uint32_t FunctionEmitter::emitInst(uint32_t I) {
  A.ensure(640);
  if (uint32_t Consumed = emitFused(I))
    return Consumed;

  const DecodedInst &DI = DF.Insts[I];
  emitStepPrologue(DI, I);

  auto intBin = [&](uint8_t Opc) {
    loadGP(RAX, DI.A);
    aluWithReg(Opc, RAX, DI.B);
    storeFromGP(DI.Result, RAX);
  };
  auto intCmp = [&](uint8_t CC) {
    loadGP(RAX, DI.A);
    aluWithReg(0x3B, RAX, DI.B);
    A.setcc(CC, RAX);
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
  };
  auto fpBin = [&](uint8_t Opc) {
    loadX0(DI.A);
    sseWithReg(Opc, DI.B);
    storeX0(DI.Result);
  };
  // ucomisd first, second; then setcc. Ordered-greater predicates
  // (seta/setae) are false on NaN because unordered sets CF, which is why
  // Lt/Le compare with the operands swapped.
  auto fpCmpGtGe = [&](Reg First, Reg Second, uint8_t CC) {
    ucomisdRegs(First, Second);
    A.setcc(CC, RAX);
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
  };
  // Div/Rem run native idiv on the common path; only the cases idiv cannot
  // express go to the shim — divisor 0 (always a fault) and, for Div,
  // divisor -1 (where INT64_MIN/-1 both overflows the result and traps the
  // instruction; the shim re-screens with divFaults and faults or divides).
  // Rem handles -1 inline: srem defines INT64_MIN % -1 == 0, and x % -1 is
  // 0 for every x, so the quotient never executes. idiv therefore never
  // traps. Arith.h sdiv/srem are C++ '/'/'%' — truncating, exactly idiv.
  auto divRem = [&](bool IsRem) {
    loadGP(RAX, DI.A);
    loadGP(RCX, DI.B);
    A.testRR(RCX, RCX);
    size_t ToSlow0 = jccFwd(0x4); // jz: divisor 0
    A.aluRI(7, RCX, -1);          // cmp rcx, -1
    size_t ToNeg1 = jccFwd(0x4);  // je
    A.b(0x48); A.b(0x99);         // cqo
    A.b(0x48); A.b(0xF7); A.b(0xF9); // idiv rcx
    if (IsRem)
      A.movRR(RAX, RDX);
    size_t ToDone0 = jmpFwd();
    bindFwd(ToNeg1);
    size_t ToDone1 = 0, ToSlow1 = 0;
    if (IsRem) {
      A.b(0x31); A.b(0xC0); // xor eax, eax: x % -1 == 0, INT64_MIN included
      ToDone1 = jmpFwd();
    } else {
      ToSlow1 = jmpFwd(); // Div by -1: shim screens the INT64_MIN overflow
    }
    bindFwd(ToSlow0);
    if (!IsRem)
      bindFwd(ToSlow1);
    writeback(); // movs only; the jcc flags above are already consumed
    A.movRR(RDX, RCX); // divisor already in rcx (B's slot may be any reg)
    A.movRR(RSI, RAX);
    A.movRR(RDI, R15);
    A.callM(R15, static_cast<int32_t>(IsRem ? offsetof(JitRT, HelpRem)
                                            : offsetof(JitRT, HelpDiv)));
    A.testRR(RDX, RDX);
    jccTo(0x5, stub(StubFaultP)); // jnz: prologue-complete fault
    reloadAll();
    bindFwd(ToDone0);
    if (IsRem)
      bindFwd(ToDone1);
    storeFromGP(DI.Result, RAX);
  };
  // Most templates fall through to the next instruction; terminators and
  // fused jumps end the counting segment themselves. A non-terminator
  // cannot legally end a block (decode always closes blocks with a
  // terminator), so hitting one declines rather than miscounting.
  auto endsSegment = [&]() -> bool {
    return I + 1 == N || IsBlockStart[I + 1];
  };

  switch (DI.D) {
  case DecodedOp::Add: intBin(0x03); break;
  case DecodedOp::Sub: intBin(0x2B); break;
  case DecodedOp::Mul:
    loadGP(RAX, DI.A);
    imulWithReg(RAX, DI.B);
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::Div: divRem(false); break;
  case DecodedOp::Rem: divRem(true); break;
  case DecodedOp::And: intBin(0x23); break;
  case DecodedOp::Or: intBin(0x0B); break;
  case DecodedOp::Xor: intBin(0x33); break;
  case DecodedOp::Shl:
  case DecodedOp::Shr:
    // Native 64-bit shifts mask the count to 6 bits, exactly the Arith.h
    // contract (shiftLeft/shiftRightArith).
    loadGP(RCX, DI.B);
    loadGP(RAX, DI.A);
    A.b(0x48); A.b(0xD3);
    A.b(DI.D == DecodedOp::Shl ? 0xE0 : 0xF8); // shl rax,cl / sar rax,cl
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::CmpEq: intCmp(0x4); break;
  case DecodedOp::CmpNe: intCmp(0x5); break;
  case DecodedOp::CmpLt: intCmp(0xC); break;
  case DecodedOp::CmpLe: intCmp(0xE); break;
  case DecodedOp::CmpGt: intCmp(0xF); break;
  case DecodedOp::CmpGe: intCmp(0xD); break;
  case DecodedOp::FAdd: fpBin(0x58); break;
  case DecodedOp::FSub: fpBin(0x5C); break;
  case DecodedOp::FMul: fpBin(0x59); break;
  case DecodedOp::FDiv: fpBin(0x5E); break;
  case DecodedOp::FCmpEq:
    // Equal iff ordered (PF=0) and ZF=1.
    ucomisdRegs(DI.A, DI.B);
    A.setcc(0xB, RAX); // setnp al
    A.setcc(0x4, RCX); // sete cl
    A.b(0x20); A.b(0xC8); // and al, cl
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::FCmpNe:
    // Not-equal is true on NaN: unordered (PF=1) or ZF=0.
    ucomisdRegs(DI.A, DI.B);
    A.setcc(0xA, RAX); // setp al
    A.setcc(0x5, RCX); // setne cl
    A.b(0x08); A.b(0xC8); // or al, cl
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::FCmpLt: fpCmpGtGe(DI.B, DI.A, 0x7); break; // b > a
  case DecodedOp::FCmpLe: fpCmpGtGe(DI.B, DI.A, 0x3); break; // b >= a
  case DecodedOp::FCmpGt: fpCmpGtGe(DI.A, DI.B, 0x7); break;
  case DecodedOp::FCmpGe: fpCmpGtGe(DI.A, DI.B, 0x3); break;
  case DecodedOp::Neg:
  case DecodedOp::Not:
    loadGP(RAX, DI.A);
    A.b(0x48); A.b(0xF7);
    A.b(DI.D == DecodedOp::Neg ? 0xD8 : 0xD0); // neg rax / not rax
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::FNeg:
    // Sign-bit flip, bit-exact with the interpreters' -double.
    loadGP(RAX, DI.A);
    A.b(0x48); A.b(0x0F); A.b(0xBA); A.b(0xF8); A.b(0x3F); // btc rax, 63
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::IntToFp:
    loadGP(RAX, DI.A);
    A.b(0xF2); A.b(0x48); A.b(0x0F); A.b(0x2A); A.b(0xC0); // cvtsi2sd xmm0,rax
    storeX0(DI.Result);
    break;
  case DecodedOp::FpToInt:
    // cvttsd2si does NOT match fpToIntSat (NaN -> INT64_MIN on x86); the
    // saturating helper is the one semantics everything folds with. It is
    // a plain C call: cannot fault, does clobber the residency pool.
    loadX0(DI.A);
    writeback();
    A.callM(R15, offsetof(JitRT, HelpFpToInt));
    reloadAll();
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::LoadI:
  case DecodedOp::LoadF:
  case DecodedOp::LoadAddrAbs: {
    int S = slotOf(DI.Result);
    if (S >= 0) {
      A.movRI(PoolReg[S], static_cast<uint64_t>(DI.Imm));
    } else {
      A.movRI(RAX, static_cast<uint64_t>(DI.Imm));
      A.movMR(RBX, regOff(DI.Result), RAX);
    }
    break;
  }
  case DecodedOp::LoadAddrFrame:
    // Simulated address: InterpStackBase + FrameOff + baked offset.
    A.movRI(RAX, InterpStackBase + static_cast<uint64_t>(DI.Imm));
    A.aluRM(0x03, RAX, RSP, 8);
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::Copy:
    loadGP(RAX, DI.A);
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::ScalarLoadAbs:
  case DecodedOp::ScalarStoreAbs: {
    const bool IsStore = DI.D == DecodedOp::ScalarStoreAbs;
    const uint32_t Len = memTypeSize(DI.MemTy);
    const uint64_t U = static_cast<uint64_t>(DI.Imm);
    const bool InImage = U >= InterpGlobalBase &&
                         U - InterpGlobalBase + Len <= GlobalSize &&
                         U - InterpGlobalBase <= uint64_t(INT32_MAX) - 8;
    if (InImage) {
      // Baked global address: in bounds by layout construction, so the
      // access is a direct host load/store off the (relocatable) image
      // base cell.
      const int32_t Off = static_cast<int32_t>(U - InterpGlobalBase);
      A.movRM(RCX, R15, OffGlobalData);
      if (IsStore) {
        loadGP(RDX, DI.A);
        if (DI.MemTy == MemType::I8) {
          A.b(0x88); A.mem(RDX, RCX, Off); // mov [rcx+off], dl
        } else {
          A.movMR(RCX, Off, RDX);
        }
      } else {
        if (DI.MemTy == MemType::I8) {
          A.b(0x48); A.b(0x0F); A.b(0xB6); A.mem(RAX, RCX, Off); // movzx
        } else {
          A.movRM(RAX, RCX, Off);
        }
        storeFromGP(DI.Result, RAX);
      }
      break;
    }
    // Not a global-image address (cannot happen today): keep the exact
    // interpreter semantics by going through the shim.
    writeback();
    A.movRI(RSI, U);
    if (IsStore) {
      // The shim takes the value in RDX like the pointer form; reuse the
      // common tail (it reloads residency and tests the fault flag).
      loadGP(RDX, DI.A);
      A.movRI32(RCX, static_cast<uint32_t>(DI.MemTy));
      A.movRR(RDI, R15);
      A.callM(R15, offsetof(JitRT, HelpStore));
      A.testRR(RAX, RAX);
      jccTo(0x5, stub(StubFaultP));
      reloadAll();
    } else {
      A.movRI32(RDX, static_cast<uint32_t>(DI.MemTy));
      A.movRR(RDI, R15);
      A.callM(R15, offsetof(JitRT, HelpLoad));
      A.testRR(RDX, RDX);
      jccTo(0x5, stub(StubFaultP));
      reloadAll();
      storeFromGP(DI.Result, RAX);
    }
    break;
  }
  case DecodedOp::ScalarLoadFrame:
  case DecodedOp::ScalarStoreFrame: {
    // Frame offsets are in bounds by FrameLayout construction (the frame
    // was sized to cover them at entry), so these are direct host accesses
    // through the r13 frame pointer.
    const bool IsStore = DI.D == DecodedOp::ScalarStoreFrame;
    const uint32_t Len = memTypeSize(DI.MemTy);
    if (DI.Imm < 0 || static_cast<uint64_t>(DI.Imm) + Len > DF.FrameSize)
      return 0; // malformed layout; let the fast path interpret it
    const int32_t Off = static_cast<int32_t>(DI.Imm);
    if (IsStore) {
      loadGP(RAX, DI.A);
      if (DI.MemTy == MemType::I8) {
        A.b(0x41); A.b(0x88); A.mem(RAX, R13, Off); // mov [r13+off], al
      } else {
        A.movMR(R13, Off, RAX);
      }
    } else {
      if (DI.MemTy == MemType::I8) {
        A.b(0x49); A.b(0x0F); A.b(0xB6); A.mem(RAX, R13, Off); // movzx
      } else {
        A.movRM(RAX, R13, Off);
      }
      storeFromGP(DI.Result, RAX);
    }
    break;
  }
  case DecodedOp::PtrLoad:
  case DecodedOp::PtrStore: {
    // The three in-bounds segments — global image, heap, simulated stack —
    // are inlined; their checks are order-free because the in-bounds
    // regions are disjoint, so any miss (null/small addresses, function
    // addresses, out-of-bounds offsets) falls through to the shim, which
    // reproduces every interpreter fault message exactly. decodeAddr's
    // rule is Off + Len > size, i.e. in bounds iff addr - base <= size -
    // len; the heap/stack forms split it into two compares (off < size,
    // then off + len <= size) because size is a runtime cell and the
    // single-compare trick would wrap for addresses just below the base.
    const bool IsStore = DI.D == DecodedOp::PtrStore;
    const uint32_t Len = memTypeSize(DI.MemTy);
    loadGP(RAX, DI.A); // simulated address, live until the shim hand-off
    size_t ToShim[4], ToDone[3];
    unsigned NShim = 0, NDone = 0;
    const bool InlineGlobal =
        GlobalSize >= Len && GlobalSize - Len <= uint64_t(INT32_MAX);
    if (InlineGlobal) {
      A.leaRM(RCX, RAX, -static_cast<int32_t>(InterpGlobalBase));
      A.aluRI(7, RCX, static_cast<int32_t>(GlobalSize - Len)); // cmp
      size_t ToHeap = jccFwd(0x7); // ja: not an in-bounds global access
      A.aluRM(0x03, RCX, R15, OffGlobalData);
      emitAccess(DI, RCX, IsStore);
      ToDone[NDone++] = jmpFwd();
      bindFwd(ToHeap);
    }
    // Heap segment.
    A.movRI(RDX, InterpHeapBase);
    A.movRR(RCX, RAX);
    A.aluRR(0x2B, RCX, RDX);
    A.aluRM(0x3B, RCX, R15, OffHeapSize);
    size_t ToStack = jccFwd(0x3); // jae: not an in-bounds heap offset
    A.leaRM(RDX, RCX, static_cast<int32_t>(Len));
    A.aluRM(0x3B, RDX, R15, OffHeapSize);
    ToShim[NShim++] = jccFwd(0x7); // ja: tail crosses the break
    A.aluRM(0x03, RCX, R15, OffHeapData);
    emitAccess(DI, RCX, IsStore);
    ToDone[NDone++] = jmpFwd();
    bindFwd(ToStack);
    // Simulated stack segment.
    A.movRI(RDX, InterpStackBase);
    A.movRR(RCX, RAX);
    A.aluRR(0x2B, RCX, RDX);
    A.aluRM(0x3B, RCX, R15, OffStackSize);
    ToShim[NShim++] = jccFwd(0x3); // jae
    A.leaRM(RDX, RCX, static_cast<int32_t>(Len));
    A.aluRM(0x3B, RDX, R15, OffStackSize);
    ToShim[NShim++] = jccFwd(0x7); // ja
    A.aluRM(0x03, RCX, R15, OffStackData);
    emitAccess(DI, RCX, IsStore);
    size_t Over = jmpFwd();
    // Cold path: the full decodeAddr through the shim.
    for (unsigned K = 0; K != NShim; ++K)
      bindFwd(ToShim[K]);
    writeback(); // movs only: RAX (the address) survives
    A.movRR(RSI, RAX);
    emitMemShimCall(DI, IsStore);
    A.patch32(Over, static_cast<uint32_t>(A.pos() - (Over + 4)));
    for (unsigned K = 0; K != NDone; ++K)
      bindFwd(ToDone[K]);
    break;
  }
  case DecodedOp::Call:
    segFlush(I); // the call step itself counts before the callee runs
    A.movMR(R15, OffTotal, R12);
    writeback();
    A.movRI32(RSI, DI.T0); // callee FuncId
    A.movRI32(RDX, DI.T1); // ArgPool offset, resolved via CurFn by the shim
    A.movRI32(RCX, DI.A);  // arg count
    A.movRR(R8, RBX);
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpCall));
    emitPostCall(DI.Result, I);
    break;
  case DecodedOp::CallIndirect:
    segFlush(I);
    A.movMR(R15, OffTotal, R12);
    writeback();
    loadGP(RSI, DI.A);     // target value, validated by the shim
    A.movRI32(RDX, DI.T0); // ArgPool offset
    A.movRI32(RCX, DI.T1); // arg count
    A.movRR(R8, RBX);
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpCallInd));
    emitPostCall(DI.Result, I);
    break;
  case DecodedOp::Br:
    segFlush(I); // before the test: the flush's adds clobber flags
    loadGP(RAX, DI.A);
    A.testRR(RAX, RAX);
    writeback(); // movs only, flags survive to the jcc
    jccTo(0x5, brTarget(DI.T0)); // jnz taken
    if (DI.T1 != I + 1)
      jmpTo(brTarget(DI.T1));
    return 1;
  case DecodedOp::Jmp:
    segFlush(I);
    writeback();
    if (DI.T0 != I + 1)
      jmpTo(brTarget(DI.T0));
    return 1;
  case DecodedOp::RetVal:
    segFlush(I);
    loadGP(RAX, DI.A); // no writeback: the frame's register file dies here
    jmpTo(stub(StubEpi));
    return 1;
  case DecodedOp::RetVoid:
    segFlush(I);
    A.b(0x31); A.b(0xC0); // xor eax, eax
    jmpTo(stub(StubEpi));
    return 1;
  case DecodedOp::Fault:
    // Decode-time diagnosed IL; counted prologue-complete like both
    // interpreters, so the flush stub (not a static table) settles the
    // segment including this step.
    A.movRR(RDI, R15);
    A.movRI32(RSI, static_cast<uint32_t>(DI.Imm)); // FaultMsgs index
    A.callM(R15, offsetof(JitRT, HelpFault));
    jmpTo(stub(StubFaultP));
    return 1;
  default:
    // Fused superinstruction (the module must be decoded unfused) or a new
    // DecodedOp without a template: decline the whole function.
    return 0;
  }
  // Fall-through template: the segment must continue into I + 1.
  if (endsSegment())
    return 0;
  return 1;
}

bool FunctionEmitter::emit() {
  N = static_cast<uint32_t>(DF.Insts.size());
  NB = static_cast<uint32_t>(DF.BlockStarts.size());
  if (N == 0 || NB == 0 || DF.BlockStarts[0] != 0 ||
      RA.Blocks.size() != NB)
    return false;
  LabelOff.assign(N + 2 * NB + NumStubs, 0);
  IsBlockStart.assign(N, 0);
  for (uint32_t S : DF.BlockStarts) {
    if (S >= N)
      return false;
    IsBlockStart[S] = 1;
  }
  ThunkNeeded.assign(NB, 0);
  Fixups.clear();
  A.ensure(512);

  // Prologue: save callee-saved state, pin the convention registers. All
  // module-level bases come from JitRT cells so the code stays relocatable
  // across Machines (code-cache sharing).
  A.b(0x53);             // push rbx
  A.b(0x41); A.b(0x54);  // push r12
  A.b(0x41); A.b(0x55);  // push r13
  A.b(0x41); A.b(0x56);  // push r14
  A.b(0x41); A.b(0x57);  // push r15
  A.b(0x48); A.b(0x83); A.b(0xEC); A.b(16); // sub rsp, 16 (keeps alignment)
  A.movRR(R15, RDI);
  A.movMR(RSP, 0, RSI); // RegBase
  A.movMR(RSP, 8, RDX); // FrameOff
  A.movRM(R14, R15, OffSegHits);
  A.movMI32(R15, OffCurFn, DF.Id);
  A.movRM(RBX, R15, OffRegArena);
  A.b(0x48); A.b(0x8D); A.b(0x1C); A.b(0xF3); // lea rbx, [rbx+rsi*8]
  A.movRM(R13, R15, OffStackData);
  A.b(0x49); A.b(0x01); A.b(0xD5); // add r13, rdx
  A.movRM(R12, R15, OffTotal);

  uint32_t NextBlock = 0;
  for (uint32_t I = 0; I != N;) {
    A.ensure(64);
    label(I);
    if (NextBlock != NB && DF.BlockStarts[NextBlock] == I) {
      CurBlock = NextBlock++;
      Cur = &RA.Blocks[CurBlock];
      CurStart = I;
      segEnter(I);
      reloadAll(); // block-entry residency loads
      label(bodyLabel(CurBlock));
    } else if (IsBlockStart[I]) {
      return false; // blocks out of ascending order: malformed stream
    }
    uint32_t Consumed = emitInst(I);
    if (Consumed == 0)
      return false;
    if (Consumed == 2)
      label(I + 1); // dead slot of a fused pair; nothing targets it
    I += Consumed;
  }

  // Single-block loop back edges land here: re-open the counting segment
  // but skip the block-entry loads — residency survives the iteration (the
  // terminator's writeback keeps memory coherent at the edge).
  for (uint32_t B = 0; B != NB; ++B) {
    if (!ThunkNeeded[B])
      continue;
    A.ensure(32);
    label(thunkLabel(B));
    A.movMR(R15, OffBlockSnap, R12);
    A.movMI32(R15, OffBlockFirst, DF.BlockStarts[B]);
    jmpTo(bodyLabel(B));
  }

  A.ensure(512); // the stubs

  // Limit faults (step limit, deadline): settle the partial segment
  // excluding the stopped step (the interpreters raise before counting it).
  label(stub(StubFaultLimit));
  A.movRR(RSI, R12);
  A.aluRM(0x2B, RSI, R15, OffBlockSnap);
  A.decR(RSI); // exclude the faulting step from the flush walk
  A.movRR(RDI, R15);
  A.callM(R15, offsetof(JitRT, HelpFlushCounters));
  jmpTo(stub(StubFault));

  // The cold step check (reached by call, so rsp is 8 past alignment
  // here): the step-limit check, then the deadline poll, then the next
  // Stop, all in the shim. The C call clobbers the caller-saved residency
  // pool, and this stub runs mid-block — preserve the pool instead of
  // forcing the prologues to write back.
  label(stub(StubStepSlow));
  A.b(0x56);            // push rsi
  A.b(0x57);            // push rdi
  A.b(0x41); A.b(0x50); // push r8
  A.b(0x41); A.b(0x51); // push r9
  A.b(0x41); A.b(0x52); // push r10
  A.b(0x41); A.b(0x53); // push r11
  A.b(0x48); A.b(0x83); A.b(0xEC); A.b(0x08); // sub rsp, 8 (align)
  A.movRR(RDI, R15);
  A.movRR(RSI, R12);
  A.callM(R15, offsetof(JitRT, HelpStepSlow));
  A.b(0x48); A.b(0x83); A.b(0xC4); A.b(0x08); // add rsp, 8
  A.testRR(RAX, RAX);
  size_t ToLimitFault = jccFwd(0x5); // jnz
  A.b(0x41); A.b(0x5B); // pop r11
  A.b(0x41); A.b(0x5A); // pop r10
  A.b(0x41); A.b(0x59); // pop r9
  A.b(0x41); A.b(0x58); // pop r8
  A.b(0x5F);            // pop rdi
  A.b(0x5E);            // pop rsi
  A.b(0xC3);
  bindFwd(ToLimitFault);
  // Drop the saved pool and the return address (48 + 8), landing back at
  // the body's stack level.
  A.b(0x48); A.b(0x83); A.b(0xC4); A.b(56); // add rsp, 56
  jmpTo(stub(StubFaultLimit));

  // Prologue-complete faults (memory, div/rem, Fault records): the
  // faulting step is fully counted, so no decrement.
  label(stub(StubFaultP));
  A.movRR(RSI, R12);
  A.aluRM(0x2B, RSI, R15, OffBlockSnap);
  A.movRR(RDI, R15);
  A.callM(R15, offsetof(JitRT, HelpFlushCounters));
  // fall through

  // Fault exit falls through into the epilogue with a zero return value.
  label(stub(StubFault));
  A.b(0x31); A.b(0xC0); // xor eax, eax
  label(stub(StubEpi));
  A.movMR(R15, OffTotal, R12); // rax carries the return value
  A.b(0x48); A.b(0x83); A.b(0xC4); A.b(16); // add rsp, 16
  A.b(0x41); A.b(0x5F); // pop r15
  A.b(0x41); A.b(0x5E); // pop r14
  A.b(0x41); A.b(0x5D); // pop r13
  A.b(0x41); A.b(0x5C); // pop r12
  A.b(0x5B);            // pop rbx
  A.b(0xC3);
  if (IdOverflow)
    return false;

  for (const Fixup &F : Fixups) {
    int64_t Rel = static_cast<int64_t>(LabelOff[F.Label]) -
                  static_cast<int64_t>(F.Pos + 4);
    if (Rel < INT32_MIN || Rel > INT32_MAX)
      return false;
    A.patch32(F.Pos, static_cast<uint32_t>(Rel));
  }
  return true;
}

} // namespace

namespace {

/// Per-function compile metrics, incremented under the program's compile
/// lock — exactly once per (cached program, function), which keeps the
/// stable ones --jobs-invariant.
struct JitCompileMetrics {
  Histogram CodeBytes;
  Counter Functions, Declines, FusedPairs, ResidentRegs;
  JitCompileMetrics() {
    auto &R = MetricsRegistry::global();
    CodeBytes = R.histogram("jit.code_bytes", {}, MetricStability::Stable,
                            "bytes", "Emitted machine code per function.");
    Functions = R.counter("jit.functions", {}, MetricStability::Stable, "ops",
                          "Functions compiled to native code.");
    Declines = R.counter("jit.declines", {}, MetricStability::Stable, "ops",
                         "Functions declined to the fast-path fallback.");
    FusedPairs = R.counter("jit.fused_pairs", {}, MetricStability::Stable,
                           "ops", "Superinstruction pairs fused by the "
                                  "emitter (static, per compile).");
    ResidentRegs = R.counter(
        "jit.regalloc_resident_regs", {}, MetricStability::Stable, "ops",
        "Block-local IL registers granted host-register residency "
        "(static, per compile).");
  }
};

JitCompileMetrics &compileMetrics() {
  static JitCompileMetrics M;
  return M;
}

} // namespace

JitProgram::Entry JitProgram::compile(const DecodedFunction &DF,
                                      uint64_t &OutCompileUs) {
  OutCompileUs = 0;
  const FuncId F = DF.Id;
  if (F >= Entries.size())
    return nullptr;
  std::lock_guard<std::mutex> Lock(CompileMu);
  if (void *E = Entries[F].load(std::memory_order_acquire))
    return reinterpret_cast<Entry>(E);
  if (Declined[F].load(std::memory_order_acquire))
    return nullptr;
  if (!DF.HasBody || DF.Insts.empty()) {
    Declined[F].store(1, std::memory_order_release);
    compileMetrics().Declines.inc();
    return nullptr;
  }

  const auto T0 = std::chrono::steady_clock::now();
  auto Done = [&] {
    OutCompileUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
  };

  // Residency is disabled under profiling: the per-step profile shim would
  // force a writeback/reload at nearly every memory step, costing more
  // than the residency saves. Profiled runs keep fusion and segment
  // counting.
  RegAllocResult RA;
  if (Profiled)
    RA.Blocks.resize(DF.BlockStarts.size());
  else
    RA = allocateBlockRegs(DF);

  std::vector<uint8_t> Code(DF.Insts.size() * 96 + 1024);
  Asm A(Code);
  FunctionEmitter FE(DF, GlobalSize, Profiled, RA, A);
  if (!FE.emit()) {
    Declined[F].store(1, std::memory_order_release);
    compileMetrics().Declines.inc();
    Done();
    return nullptr;
  }

  const size_t Size = A.pos();
  void *Mem = ::mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    Declined[F].store(1, std::memory_order_release);
    Done();
    return nullptr;
  }
  std::memcpy(Mem, Code.data(), Size);
  if (::mprotect(Mem, Size, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(Mem, Size);
    Declined[F].store(1, std::memory_order_release);
    Done();
    return nullptr;
  }

  Chunks.push_back({static_cast<uint8_t *>(Mem), Size});
  NCompiled.fetch_add(1, std::memory_order_relaxed);
  NCodeBytes.fetch_add(Size, std::memory_order_relaxed);
  NFusedPairs.fetch_add(FE.fusedPairs(), std::memory_order_relaxed);
  NResidentRegs.fetch_add(RA.ResidentRegs, std::memory_order_relaxed);
  JitCompileMetrics &JM = compileMetrics();
  JM.CodeBytes.observe(Size);
  JM.Functions.inc();
  if (FE.fusedPairs())
    JM.FusedPairs.inc(FE.fusedPairs());
  if (RA.ResidentRegs)
    JM.ResidentRegs.inc(RA.ResidentRegs);
  Entries[F].store(Mem, std::memory_order_release);
  Done();
  return reinterpret_cast<Entry>(Mem);
}

#endif // RPCC_JIT_AVAILABLE
