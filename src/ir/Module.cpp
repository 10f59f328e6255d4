//===- ir/Module.cpp ------------------------------------------------------===//

#include "ir/Module.h"

#include <bit>

using namespace rpcc;

namespace {

bool sameInst(const Instruction &A, const Instruction &B) {
  return A.Op == B.Op && A.Result == B.Result && A.Ops == B.Ops &&
         A.Imm == B.Imm &&
         std::bit_cast<uint64_t>(A.FImm) == std::bit_cast<uint64_t>(B.FImm) &&
         A.MemTy == B.MemTy && A.Tag == B.Tag && A.Tags == B.Tags &&
         A.Mods == B.Mods && A.Refs == B.Refs && A.Callee == B.Callee &&
         A.IndirectCallees == B.IndirectCallees && A.Target0 == B.Target0 &&
         A.Target1 == B.Target1 && A.PhiIns == B.PhiIns;
}

bool sameFunction(const Function &A, const Function &B) {
  if (A.name() != B.name() || A.builtin() != B.builtin() ||
      A.numRegs() != B.numRegs() || A.paramRegs() != B.paramRegs() ||
      A.returnsValue() != B.returnsValue() ||
      A.returnType() != B.returnType() || A.funcTag() != B.funcTag() ||
      A.numBlocks() != B.numBlocks())
    return false;
  for (Reg R = 0; R != A.numRegs(); ++R)
    if (A.regType(R) != B.regType(R))
      return false;
  for (BlockId Id = 0; Id != A.numBlocks(); ++Id) {
    const BasicBlock &BA = *A.block(Id), &BB = *B.block(Id);
    if (BA.size() != BB.size() || BA.name() != BB.name())
      return false;
    for (size_t I = 0; I != BA.size(); ++I)
      if (!sameInst(*BA.insts()[I], *BB.insts()[I]))
        return false;
  }
  return true;
}

bool sameTag(const Tag &A, const Tag &B) {
  return A.Id == B.Id && A.Kind == B.Kind && A.Owner == B.Owner &&
         A.Fn == B.Fn && A.AddressTaken == B.AddressTaken &&
         A.ReadOnly == B.ReadOnly && A.IsScalar == B.IsScalar &&
         A.ValTy == B.ValTy && A.SizeBytes == B.SizeBytes && A.Name == B.Name;
}

} // namespace

bool rpcc::identicalModules(const Module &A, const Module &B) {
  if (A.numFunctions() != B.numFunctions() ||
      A.tags().size() != B.tags().size() ||
      A.globals().size() != B.globals().size())
    return false;
  for (TagId T = 0; T != A.tags().size(); ++T)
    if (!sameTag(A.tags().tag(T), B.tags().tag(T)))
      return false;
  for (size_t G = 0; G != A.globals().size(); ++G)
    if (A.globals()[G].Tag != B.globals()[G].Tag ||
        A.globals()[G].Bytes != B.globals()[G].Bytes)
      return false;
  for (FuncId F = 0; F != A.numFunctions(); ++F)
    if (!sameFunction(*A.function(F), *B.function(F)))
      return false;
  return true;
}

std::unique_ptr<Module> Module::clone() const {
  auto M = std::make_unique<Module>();
  M->Funcs.reserve(Funcs.size());
  for (const auto &F : Funcs)
    M->Funcs.push_back(F->clone());
  M->FuncByName = FuncByName;
  M->Tags = Tags;
  M->Globals = Globals;
  return M;
}

Function *Module::addFunction(std::string Name) {
  assert(FuncByName.find(Name) == FuncByName.end() && "duplicate function");
  FuncId Id = static_cast<FuncId>(Funcs.size());
  Funcs.push_back(std::make_unique<Function>(Id, Name));
  FuncByName.emplace(std::move(Name), Id);
  return Funcs.back().get();
}

void Module::declareBuiltins() {
  struct Desc {
    const char *Name;
    BuiltinKind Kind;
    unsigned NumParams;
    bool FloatParams;
    bool HasRet;
    RegType RetTy;
  };
  static const Desc Table[] = {
      {"malloc", BuiltinKind::Malloc, 1, false, true, RegType::Int},
      {"free", BuiltinKind::Free, 1, false, false, RegType::Int},
      {"print_int", BuiltinKind::PrintInt, 1, false, false, RegType::Int},
      {"print_char", BuiltinKind::PrintChar, 1, false, false, RegType::Int},
      {"print_float", BuiltinKind::PrintFloat, 1, true, false, RegType::Int},
      {"print_str", BuiltinKind::PrintStr, 1, false, false, RegType::Int},
      {"sqrt", BuiltinKind::Sqrt, 1, true, true, RegType::Flt},
      {"sin", BuiltinKind::Sin, 1, true, true, RegType::Flt},
      {"cos", BuiltinKind::Cos, 1, true, true, RegType::Flt},
      {"pow", BuiltinKind::Pow, 2, true, true, RegType::Flt},
  };
  for (const Desc &D : Table) {
    if (lookup(D.Name) != NoFunc)
      continue;
    Function *F = addFunction(D.Name);
    F->setBuiltin(D.Kind);
    for (unsigned I = 0; I != D.NumParams; ++I)
      F->paramRegs().push_back(
          F->newReg(D.FloatParams ? RegType::Flt : RegType::Int));
    F->setReturn(D.HasRet, D.RetTy);
  }
}
