//===- ir/BasicBlock.h - Basic block ----------------------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef RPCC_IR_BASICBLOCK_H
#define RPCC_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace rpcc {

/// A straight-line sequence of instructions terminated by a branch, jump, or
/// return. Predecessor/successor lists are derived state maintained by
/// Cfg::recompute(); passes that edit terminators must refresh them.
class BasicBlock {
public:
  BasicBlock(BlockId Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  BlockId id() const { return Id; }
  const std::string &name() const { return Name; }
  void setId(BlockId NewId) { Id = NewId; }
  void setName(std::string N) { Name = std::move(N); }

  std::vector<std::unique_ptr<Instruction>> &insts() { return Insts; }
  const std::vector<std::unique_ptr<Instruction>> &insts() const {
    return Insts;
  }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  /// Appends \p I and returns a pointer to the stored instruction.
  Instruction *append(Instruction I) {
    Insts.push_back(std::make_unique<Instruction>(std::move(I)));
    return Insts.back().get();
  }

  /// Inserts \p I before position \p Idx.
  Instruction *insertAt(size_t Idx, Instruction I) {
    auto It = Insts.begin() + static_cast<ptrdiff_t>(Idx);
    It = Insts.insert(It, std::make_unique<Instruction>(std::move(I)));
    return It->get();
  }

  /// Drops the instructions whose slots a pass has reset to null, keeping
  /// the rest in order. Passes that delete reset the slots as they go and
  /// compact once: erasing one at a time shifts the tail each time, which
  /// is quadratic on a long block.
  void removeErased() {
    Insts.erase(std::remove(Insts.begin(), Insts.end(), nullptr), Insts.end());
  }

  /// The block terminator, or nullptr for a block still under construction.
  Instruction *terminator() {
    if (Insts.empty() || !isTerminator(Insts.back()->Op))
      return nullptr;
    return Insts.back().get();
  }
  const Instruction *terminator() const {
    return const_cast<BasicBlock *>(this)->terminator();
  }

  std::vector<BlockId> &preds() { return Preds; }
  std::vector<BlockId> &succs() { return Succs; }
  const std::vector<BlockId> &preds() const { return Preds; }
  const std::vector<BlockId> &succs() const { return Succs; }

  /// Deep copy: same id/name, every instruction copied by value (operand
  /// lists and tag sets included), predecessor/successor lists preserved.
  /// Shares no storage with this block.
  std::unique_ptr<BasicBlock> clone() const {
    auto B = std::make_unique<BasicBlock>(Id, Name);
    B->Insts.reserve(Insts.size());
    for (const auto &IP : Insts)
      B->Insts.push_back(std::make_unique<Instruction>(IP->clone()));
    B->Preds = Preds;
    B->Succs = Succs;
    return B;
  }

private:
  BlockId Id;
  std::string Name;
  std::vector<std::unique_ptr<Instruction>> Insts;
  std::vector<BlockId> Preds, Succs;
};

} // namespace rpcc

#endif // RPCC_IR_BASICBLOCK_H
