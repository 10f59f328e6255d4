//===- opt/Dce.cpp --------------------------------------------------------===//

#include "opt/Dce.h"

using namespace rpcc;

namespace {

/// True if \p I may be deleted once its result is unused.
bool isRemovable(const Instruction &I) {
  if (!I.hasResult())
    return false;
  if (isPureOp(I.Op))
    return true;
  // Loads have no side effects in this IL; dead loads are deletable (this
  // is precisely the kind of memory traffic the optimizer hunts).
  return isLoadOp(I.Op);
}

} // namespace

unsigned rpcc::runDce(Function &F) {
  unsigned Removed = 0;
  std::vector<uint32_t> UseCount(F.numRegs(), 0);
  for (const auto &B : F.blocks())
    for (const auto &IP : B->insts())
      for (Reg R : IP->Ops)
        ++UseCount[R];

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto &B : F.blocks()) {
      auto &Insts = B->insts();
      bool Erased = false;
      // Backward, so the slots reset below all lie behind the cursor.
      for (size_t Idx = Insts.size(); Idx-- > 0;) {
        Instruction &I = *Insts[Idx];
        if (!isRemovable(I) || UseCount[I.Result] != 0)
          continue;
        for (Reg R : I.Ops)
          --UseCount[R];
        Insts[Idx].reset();
        Erased = true;
        ++Removed;
      }
      if (Erased) {
        B->removeErased();
        Changed = true;
      }
    }
  }
  return Removed;
}

unsigned rpcc::runDce(Module &M) {
  unsigned Removed = 0;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      Removed += runDce(*F);
  }
  return Removed;
}
