//===- ir/Module.h - Whole-program IL container -----------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef RPCC_IR_MODULE_H
#define RPCC_IR_MODULE_H

#include "ir/Function.h"
#include "ir/Tag.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace rpcc {

/// Initial contents of one global tag. Empty bytes mean zero-initialized.
struct GlobalInit {
  TagId Tag = NoTag;
  std::vector<uint8_t> Bytes;
};

/// A whole program: functions, the tag table, and global initializers.
/// The paper's analyses are whole-program ("We analyze the entire program at
/// once"), so the module is the unit every interprocedural pass consumes.
class Module {
public:
  Function *addFunction(std::string Name);

  /// Registers the standard builtins (malloc, free, print_*, math). Called
  /// by the frontend; harmless to call twice.
  void declareBuiltins();

  FuncId lookup(const std::string &Name) const {
    auto It = FuncByName.find(Name);
    return It == FuncByName.end() ? NoFunc : It->second;
  }

  Function *function(FuncId Id) {
    assert(Id < Funcs.size() && "invalid function id");
    return Funcs[Id].get();
  }
  const Function *function(FuncId Id) const {
    assert(Id < Funcs.size() && "invalid function id");
    return Funcs[Id].get();
  }
  size_t numFunctions() const { return Funcs.size(); }

  TagTable &tags() { return Tags; }
  const TagTable &tags() const { return Tags; }

  /// Local/Spill tags owned by function \p F, ascending by tag id (see
  /// TagTable::ownedBy).
  const std::vector<TagId> &tagsOwnedBy(FuncId F) const {
    return Tags.ownedBy(F);
  }

  std::vector<GlobalInit> &globals() { return Globals; }
  const std::vector<GlobalInit> &globals() const { return Globals; }

  /// Adds a zero- or byte-initialized global for \p Tag.
  void addGlobal(TagId Tag, std::vector<uint8_t> Bytes = {}) {
    Globals.push_back(GlobalInit{Tag, std::move(Bytes)});
  }

  /// Deep copy of the whole program. Function, block, register, and tag ids
  /// are dense indices, so the clone preserves them all verbatim: every
  /// function (blocks, instructions, tag lists, call MOD/REF summaries),
  /// the tag table with its per-owner indexes, the name lookup map, and the
  /// global initializers. The clone aliases no storage with this module —
  /// mutating either side never affects the other — which is what lets the
  /// compile cache hand forks of one analyzed module to concurrent compile
  /// jobs.
  std::unique_ptr<Module> clone() const;

private:
  std::vector<std::unique_ptr<Function>> Funcs;
  std::unordered_map<std::string, FuncId> FuncByName;
  TagTable Tags;
  std::vector<GlobalInit> Globals;
};

/// True when \p A and \p B are the same program, field for field: every
/// function (name, builtin kind, register count and types, parameter
/// registers, return shape, function tag, and its blocks with their names
/// and every instruction field, tag sets and call summaries included), the
/// whole tag table, and the global initializers. Floating immediates compare
/// by bit pattern. Only derived state is skipped: block predecessor and
/// successor lists and the name and owner indexes, which follow from the
/// compared fields.
///
/// Everything printModule prints is compared, so identical modules print
/// identically; and interpret() reads nothing else, so it gives identical
/// results on them. One pass over both modules, stopping at the first
/// difference: far cheaper than printing them.
bool identicalModules(const Module &A, const Module &B);

} // namespace rpcc

#endif // RPCC_IR_MODULE_H
