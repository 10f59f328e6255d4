//===- regalloc/GraphColoring.cpp -----------------------------------------===//
//
// One round is: build the graph into the reused flat matrix, coalesce on
// it (merge() edits bits, spans and counts; one walk renames the function),
// and color it. If every node colors, one walk rewrites each register to
// its color and the function is done. Otherwise one walk rewrites every
// spilled register, and the next round builds again.
//
//===----------------------------------------------------------------------===//

#include "regalloc/GraphColoring.h"

#include "analysis/Cfg.h"
#include "regalloc/Liverange.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace rpcc;

namespace {

/// How one register of a round's spill list leaves the function.
struct SpillPlan {
  Reg V = NoReg;
  bool Remat = false;
  bool IsParam = false;
  TagId Tag = NoTag;
  MemType MT = MemType::I64;
  unsigned Uses = 0; ///< instructions reading V
  unsigned Defs = 0; ///< instructions defining V
  const Instruction *Def = nullptr;
  size_t RematDef = 0; ///< index of Def's copy in Workspace::RematDefs
  Reg NextTmp = NoReg; ///< V's next temp, in walk order
};

/// Storage one allocateRegisters call reuses across spill rounds and across
/// functions, and frees when it returns. Never static or thread_local: the
/// suite, the fuzzer and rpserved allocate on several threads at once, and
/// one long function's matrix can run to hundreds of MB, which a parked
/// worker thread would then hold forever.
struct Workspace {
  InterferenceGraph IG;
  std::vector<Reg> Remap;
  // Coloring.
  std::vector<unsigned> Degree;
  std::vector<uint64_t> Unremoved, LowDegree, Colored;
  std::vector<Reg> Stack, SpillOrder, SpillList;
  std::vector<double> SpillKey;
  std::vector<int> Colors;
  std::vector<unsigned> UsedStamp;
  // Spilling.
  std::vector<char> NoSpill;
  std::vector<int> Slot;
  std::vector<unsigned> SlotSeen;
  std::vector<SpillPlan> Plans;
  std::vector<Instruction> RematDefs;
  std::vector<char> BlockTouched;
  std::vector<int> InstSlots;
  std::vector<std::unique_ptr<Instruction>> NewInsts;
};

class Allocator {
public:
  Allocator(Module &M, Function &F, const RegAllocOptions &Opts,
            RegAllocStats &Stats, Workspace &WS)
      : M(M), F(F), Opts(Opts), K(effectiveK(F, Opts.NumRegisters)),
        Stats(Stats), WS(WS) {}

  /// Arguments are passed in registers, so an instruction with N operands
  /// needs N simultaneous registers no matter how much we spill; likewise
  /// a function's incoming parameters are all live at once on entry. Clamp
  /// K up to that structural minimum (plus one for a defined result).
  static unsigned effectiveK(const Function &F, unsigned K) {
    unsigned MinK = 4;
    for (const auto &B : F.blocks())
      for (const auto &IP : B->insts())
        MinK = std::max(MinK, static_cast<unsigned>(IP->Ops.size()) + 1);
    unsigned IntParams = 0, FltParams = 0;
    for (Reg P : F.paramRegs()) {
      if (F.regType(P) == RegType::Flt)
        ++FltParams;
      else
        ++IntParams;
    }
    MinK = std::max(MinK, IntParams + 1);
    MinK = std::max(MinK, FltParams + 1);
    return std::max(K, MinK);
  }

  void run() {
    recomputeCfg(F);
    // Spill rounds insert instructions but never touch the CFG, so the
    // loop-depth spill weights are computed once for every graph build.
    BlockWeight = loopDepthWeights(F);
    WS.NoSpill.assign(F.numRegs(), 0);
    for (unsigned Round = 0; Round < 100; ++Round) {
      ++Stats.Rounds;
      // coalesce() folds merges into the round's single graph with the
      // union update (see InterferenceGraph::merge), so the graph it leaves
      // is colored directly, and the only rebuilds are one per spill round.
      coalesce();
      WS.SpillList.clear();
      if (color(WS.SpillList)) {
        rewriteToColors();
        return;
      }
      spillAll(WS.SpillList);
    }
    assert(false && "register allocation failed to converge");
  }

private:
  // -- Coalescing ---------------------------------------------------------
  /// Briggs conservative test: merging is safe if the combined node has
  /// fewer than K same-class neighbors of significant degree.
  bool briggsSafe(const InterferenceGraph &IG, Reg A, Reg B) {
    unsigned Significant = 0;
    IG.forEachClassNeighbor(A, [&](Reg Nb) {
      if (Nb == B)
        return;
      unsigned Deg = IG.classDegree(Nb);
      if (IG.interfere(Nb, B))
        --Deg; // merged node counts once
      if (Deg >= K)
        ++Significant;
    });
    // Neighbors of B not shared with A.
    IG.forEachClassNeighbor(B, [&](Reg Nb) {
      if (Nb == A || IG.interfere(Nb, A))
        return;
      if (IG.classDegree(Nb) >= K)
        ++Significant;
    });
    return Significant < K;
  }

  /// George's coalescing test: merging B into A is safe if every
  /// same-class neighbor of B either already interferes with A or is of
  /// insignificant degree. Catches the long-live-range copies (promotion's
  /// accumulators) that the Briggs test rejects under pressure.
  bool georgeSafe(const InterferenceGraph &IG, Reg A, Reg B) {
    bool Safe = true;
    IG.forEachClassNeighbor(B, [&](Reg Nb) {
      if (Nb != A && IG.classDegree(Nb) >= K && !IG.interfere(Nb, A))
        Safe = false;
    });
    return Safe;
  }

  /// Representative of \p R under the pending merges, with path
  /// compression.
  static Reg rep(std::vector<Reg> &Remap, Reg R) {
    while (Remap[R] != R) {
      Remap[R] = Remap[Remap[R]]; // halve the chain
      R = Remap[R];
    }
    return R;
  }

  /// Builds the round's graph and coalesces to a fixpoint on it. Each merge
  /// folds the copy's endpoints with InterferenceGraph::merge — the
  /// conservative union update — which keeps degrees current, so no rebuild
  /// is needed between sweeps; sweeps repeat only because a merge elsewhere
  /// can drop a neighborhood below the Briggs threshold and unlock another
  /// copy.
  void coalesce() {
    InterferenceGraph &IG = WS.IG;
    IG.build(F, BlockWeight);
    std::vector<Reg> &Remap = WS.Remap;
    Remap.resize(F.numRegs());
    for (Reg R = 0; R != F.numRegs(); ++R)
      Remap[R] = R;
    bool NeedRewrite = false;

    for (bool MergedAny = true; MergedAny;) {
      MergedAny = false;
      for (const auto &C : IG.copies()) {
        Reg A = rep(Remap, C.Dst), B = rep(Remap, C.Src);
        if (A == B || IG.interfere(A, B))
          continue;
        if (IG.type(A) != IG.type(B))
          continue;
        bool Safe = briggsSafe(IG, A, B) ||
                    (Opts.GeorgeCoalescing &&
                     (georgeSafe(IG, A, B) || georgeSafe(IG, B, A)));
        if (!Safe)
          continue;
        IG.merge(A, B, C.Weight);
        Remap[B] = A;
        NeedRewrite = true;
        MergedAny = true;
        ++Stats.CoalescedCopies;
      }
    }
    if (NeedRewrite) {
      for (Reg R = 0; R != F.numRegs(); ++R)
        Remap[R] = rep(Remap, R);
      applyRemap(Remap);
    }
  }

  /// Renames every register to its representative and erases the copies
  /// that became identities.
  void applyRemap(const std::vector<Reg> &Remap) {
    for (auto &B : F.blocks()) {
      auto &Insts = B->insts();
      size_t Keep = 0;
      for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
        Instruction &I = *Insts[Idx];
        if (I.hasResult())
          I.Result = Remap[I.Result];
        for (Reg &R : I.Ops)
          R = Remap[R];
        if (I.Op == Opcode::Copy && I.Result == I.Ops[0])
          continue; // erased: overwritten or trimmed below
        if (Keep != Idx)
          Insts[Keep] = std::move(Insts[Idx]);
        ++Keep;
      }
      Insts.resize(Keep);
    }
    for (Reg &P : F.paramRegs())
      P = Remap[P];
  }

  // -- Coloring -------------------------------------------------------------
  /// The round's optimistic-spill order: live nodes by (spill cost, register),
  /// where spiller temps carry a 1e12 penalty. Costs are fixed for the
  /// round, so taking the first node still in the graph gives the pick a
  /// full scan with a strict `<` would: the cheapest, lowest-numbered first.
  void buildSpillOrder(const InterferenceGraph &IG) {
    std::vector<double> &Key = WS.SpillKey;
    std::vector<Reg> &Order = WS.SpillOrder;
    Key.resize(IG.numNodes());
    Order.clear();
    const uint64_t *LiveNodes = IG.liveNodes();
    for (size_t WI = 0; WI != IG.stride(); ++WI)
      for (uint64_t W = LiveNodes[WI]; W; W &= W - 1) {
        Reg R = static_cast<Reg>(WI * 64 + __builtin_ctzll(W));
        double Cost = IG.spillCosts()[R];
        if (WS.NoSpill[R])
          Cost += 1e12; // strongly avoid re-spilling reload temps
        Key[R] = Cost;
        Order.push_back(R);
      }
    std::sort(Order.begin(), Order.end(), [&](Reg A, Reg B) {
      return Key[A] < Key[B] || (Key[A] == Key[B] && A < B);
    });
  }

  /// Colors both register classes; integer nodes draw from {0..K-1},
  /// floats from {K..2K-1}. Only same-class neighbors constrain a node, so
  /// every neighbor walk ANDs the row with the node's class mask.
  bool color(std::vector<Reg> &SpillList) {
    const InterferenceGraph &IG = WS.IG;
    const size_t N = IG.numNodes(), W = IG.stride();
    std::vector<unsigned> &Degree = WS.Degree;
    Degree = IG.classDegrees();
    std::vector<uint64_t> &Unremoved = WS.Unremoved;
    Unremoved.assign(IG.liveNodes(), IG.liveNodes() + W);
    std::vector<Reg> &Stack = WS.Stack;
    Stack.clear();
    // Low-degree nodes awaiting simplification, as a bit row, so each pick
    // is the lowest-numbered eligible node — the one a linear rescan would
    // find. Degrees only decrease and removed nodes leave the neighbor
    // walks, so setting a bit again is a no-op.
    std::vector<uint64_t> &LowDegree = WS.LowDegree;
    LowDegree.assign(W, 0);
    size_t Remaining = 0;
    for (size_t WI = 0; WI != W; ++WI)
      for (uint64_t Bits = Unremoved[WI]; Bits; Bits &= Bits - 1) {
        Reg R = static_cast<Reg>(WI * 64 + __builtin_ctzll(Bits));
        if (Degree[R] < K)
          setBit(LowDegree.data(), R);
        ++Remaining;
      }

    // Simplify with optimistic spill candidates.
    size_t OrderPos = 0;
    bool OrderBuilt = false;
    while (Remaining) {
      Reg Pick = NoReg;
      for (size_t WI = 0; WI != W; ++WI)
        if (LowDegree[WI]) {
          Pick = static_cast<Reg>(WI * 64 + __builtin_ctzll(LowDegree[WI]));
          resetBit(LowDegree.data(), Pick);
          break;
        }
      if (Pick == NoReg) {
        // Optimistic spill: cheapest candidate, avoiding spiller temps.
        if (!OrderBuilt) {
          buildSpillOrder(IG);
          OrderBuilt = true;
        }
        while (!testBit(Unremoved.data(), WS.SpillOrder[OrderPos]))
          ++OrderPos;
        Pick = WS.SpillOrder[OrderPos];
      }
      resetBit(Unremoved.data(), Pick);
      --Remaining;
      Stack.push_back(Pick);
      IG.forEachClassNeighbor(Pick, Unremoved.data(), [&](Reg Nb) {
        if (Degree[Nb] != 0 && --Degree[Nb] < K)
          setBit(LowDegree.data(), Nb);
      });
    }

    // Select. One stamp buffer serves every node: a color is "used" for
    // the node under consideration iff its stamp matches that node's
    // epoch, so no per-node clearing or allocation is needed.
    std::vector<int> &Colors = WS.Colors;
    Colors.assign(N, -1);
    std::vector<uint64_t> &Colored = WS.Colored;
    Colored.assign(W, 0);
    bool Success = true;
    std::vector<unsigned> &UsedStamp = WS.UsedStamp;
    UsedStamp.assign(K, 0);
    unsigned Epoch = 0;
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
      Reg R = *It;
      ++Epoch;
      IG.forEachClassNeighbor(R, Colored.data(),
                              [&](Reg Nb) { UsedStamp[classColor(Nb)] = Epoch; });
      int C = -1;
      for (unsigned I = 0; I != K; ++I)
        if (UsedStamp[I] != Epoch) {
          C = static_cast<int>(I);
          break;
        }
      if (C < 0) {
        SpillList.push_back(R);
        Success = false;
      } else {
        bool IsFlt = IG.type(R) == RegType::Flt;
        Colors[R] = C + (IsFlt ? static_cast<int>(K) : 0);
        setBit(Colored.data(), R);
        Stats.ColorsUsed =
            std::max(Stats.ColorsUsed, static_cast<unsigned>(C) + 1);
      }
    }
    return Success;
  }

  /// The within-class color of an already-colored node.
  unsigned classColor(Reg R) const {
    int C = WS.Colors[R];
    return static_cast<unsigned>(C) >= K ? static_cast<unsigned>(C) - K
                                         : static_cast<unsigned>(C);
  }

  // -- Spilling --------------------------------------------------------------
  /// Rewrites every register of \p List out of the function in one walk.
  ///
  /// A register whose only definition is a constant or tag address is
  /// rematerialized (Briggs): recomputed in front of each reader, its
  /// definition deleted — hoisted loop invariants spill for free. Any other
  /// register gets a fresh Spill tag: a reload in front of each reader, a
  /// store after each definition, and for a parameter, which arrives in a
  /// register, a store at the top of the entry block.
  ///
  /// Temps and tags are numbered as if each register had its own walk, in
  /// list order: all of one register's temps (one per reader, then one per
  /// definition, in walk order) before the next register's, and its tag
  /// when its turn comes. In front of an instruction the reloads and
  /// rematerialized definitions stand in list order; the entry stores of
  /// spilled parameters stand at index 0 in reverse list order.
  void spillAll(const std::vector<Reg> &List) {
    const size_t N = F.numRegs();
    std::vector<int> &Slot = WS.Slot;
    Slot.assign(N, -1);
    for (size_t I = 0; I != List.size(); ++I)
      Slot[List[I]] = static_cast<int>(I);
    std::vector<SpillPlan> &Plans = WS.Plans;
    Plans.assign(List.size(), SpillPlan());
    std::vector<unsigned> &SlotSeen = WS.SlotSeen;
    SlotSeen.assign(List.size(), 0);
    std::vector<char> &Touched = WS.BlockTouched;
    Touched.assign(F.numBlocks(), 0);

    // Count each listed register's readers and definitions.
    unsigned InstNo = 0;
    for (const auto &B : F.blocks())
      for (const auto &IP : B->insts()) {
        const Instruction &I = *IP;
        ++InstNo;
        if (I.hasResult() && Slot[I.Result] >= 0) {
          SpillPlan &P = Plans[Slot[I.Result]];
          ++P.Defs;
          P.Def = &I;
          Touched[B->id()] = 1;
        }
        for (Reg R : I.Ops)
          if (Slot[R] >= 0 && SlotSeen[Slot[R]] != InstNo) {
            SlotSeen[Slot[R]] = InstNo;
            ++Plans[Slot[R]].Uses;
            Touched[B->id()] = 1;
          }
      }

    // Decide, name and number in list order.
    std::vector<Instruction> &RematDefs = WS.RematDefs;
    RematDefs.clear();
    bool ParamStores = false;
    for (size_t I = 0; I != List.size(); ++I) {
      SpillPlan &P = Plans[I];
      P.V = List[I];
      for (Reg Param : F.paramRegs())
        P.IsParam |= Param == P.V;
      P.Remat = Opts.Rematerialization && !P.IsParam && P.Defs == 1 &&
                (P.Def->Op == Opcode::LoadI || P.Def->Op == Opcode::LoadF ||
                 P.Def->Op == Opcode::LoadAddr);
      unsigned Temps;
      if (P.Remat) {
        ++Stats.RematerializedRegs;
        P.RematDef = RematDefs.size();
        RematDefs.push_back(P.Def->clone());
        Temps = P.Uses;
      } else {
        ++Stats.SpilledRegs;
        P.MT = F.regType(P.V) == RegType::Flt ? MemType::F64 : MemType::I64;
        P.Tag = M.tags().createSpill("spill." + F.name() + "." +
                                         std::to_string(Stats.SpilledRegs),
                                     F.id(), P.MT);
        Temps = P.Uses + P.Defs;
        Stats.SpillLoads += P.Uses;
        Stats.SpillStores += P.Defs + (P.IsParam ? 1 : 0);
        ParamStores |= P.IsParam;
      }
      P.NextTmp = static_cast<Reg>(F.numRegs());
      for (unsigned T = 0; T != Temps; ++T)
        F.newReg(F.regType(P.V));
    }
    // Every spiller temp is avoided by later optimistic picks.
    WS.NoSpill.resize(F.numRegs(), 1);
    if (ParamStores)
      Touched[F.entry()->id()] = 1;

    std::vector<std::unique_ptr<Instruction>> &Out = WS.NewInsts;
    std::vector<int> &InstSlots = WS.InstSlots;
    for (auto &B : F.blocks()) {
      if (!Touched[B->id()])
        continue;
      auto &Insts = B->insts();
      Out.clear();
      if (B.get() == F.entry())
        for (size_t I = List.size(); I-- > 0;)
          if (!Plans[I].Remat && Plans[I].IsParam) {
            Instruction St(Opcode::ScalarStore);
            St.Tag = Plans[I].Tag;
            St.MemTy = Plans[I].MT;
            St.Ops = {Plans[I].V};
            Out.push_back(std::make_unique<Instruction>(std::move(St)));
          }
      for (auto &IP : Insts) {
        Instruction &I = *IP;
        InstSlots.clear();
        for (Reg R : I.Ops)
          if (Slot[R] >= 0 &&
              std::find(InstSlots.begin(), InstSlots.end(), Slot[R]) ==
                  InstSlots.end())
            InstSlots.push_back(Slot[R]);
        std::sort(InstSlots.begin(), InstSlots.end());
        for (int S : InstSlots) {
          SpillPlan &P = Plans[S];
          Reg Tmp = P.NextTmp++;
          if (P.Remat) {
            Instruction Clone = RematDefs[P.RematDef].clone();
            Clone.Result = Tmp;
            Out.push_back(std::make_unique<Instruction>(std::move(Clone)));
          } else {
            Instruction Ld(Opcode::ScalarLoad);
            Ld.Tag = P.Tag;
            Ld.MemTy = P.MT;
            Ld.Result = Tmp;
            Out.push_back(std::make_unique<Instruction>(std::move(Ld)));
          }
          for (Reg &R : I.Ops)
            if (R == P.V)
              R = Tmp;
        }
        if (I.hasResult() && Slot[I.Result] >= 0) {
          SpillPlan &P = Plans[Slot[I.Result]];
          if (P.Remat)
            continue; // the definition itself; V is now dead
          Reg Tmp = P.NextTmp++;
          I.Result = Tmp;
          Out.push_back(std::move(IP));
          Instruction St(Opcode::ScalarStore);
          St.Tag = P.Tag;
          St.MemTy = P.MT;
          St.Ops = {Tmp};
          Out.push_back(std::make_unique<Instruction>(std::move(St)));
          continue;
        }
        Out.push_back(std::move(IP));
      }
      Insts.swap(Out);
    }
    Out.clear();
  }

  // -- Final rewrite ------------------------------------------------------------
  void rewriteToColors() {
    const std::vector<int> &Colors = WS.Colors;
    for (auto &B : F.blocks()) {
      auto &Insts = B->insts();
      size_t Keep = 0;
      for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
        Instruction &I = *Insts[Idx];
        if (I.hasResult()) {
          assert(Colors[I.Result] >= 0 && "uncolored defined register");
          I.Result = static_cast<Reg>(Colors[I.Result]);
        }
        for (Reg &R : I.Ops) {
          assert(Colors[R] >= 0 && "uncolored used register");
          R = static_cast<Reg>(Colors[R]);
        }
        // Copies whose operands landed in the same register disappear.
        if (I.Op == Opcode::Copy && I.Result == I.Ops[0])
          continue;
        if (Keep != Idx)
          Insts[Keep] = std::move(Insts[Idx]);
        ++Keep;
      }
      Insts.resize(Keep);
    }
    for (Reg &P : F.paramRegs())
      P = static_cast<Reg>(Colors[P]);
    F.resetRegisters(2 * K);
  }

  Module &M;
  Function &F;
  const RegAllocOptions &Opts;
  const unsigned K;
  RegAllocStats &Stats;
  Workspace &WS;
  std::vector<double> BlockWeight;
};

RegAllocStats allocateOne(Module &M, Function &F, const RegAllocOptions &Opts,
                          Workspace &WS) {
  RegAllocStats Stats;
  Allocator(M, F, Opts, Stats, WS).run();
  return Stats;
}

} // namespace

RegAllocStats rpcc::allocateRegisters(Module &M, Function &F,
                                      const RegAllocOptions &Opts) {
  Workspace WS;
  return allocateOne(M, F, Opts, WS);
}

RegAllocStats rpcc::allocateRegisters(Module &M, const RegAllocOptions &Opts) {
  RegAllocStats Total;
  Workspace WS;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (F->isBuiltin() || F->numBlocks() == 0)
      continue;
    RegAllocStats S = allocateOne(M, *F, Opts, WS);
    Total.CoalescedCopies += S.CoalescedCopies;
    Total.SpilledRegs += S.SpilledRegs;
    Total.RematerializedRegs += S.RematerializedRegs;
    Total.SpillLoads += S.SpillLoads;
    Total.SpillStores += S.SpillStores;
    Total.Rounds += S.Rounds;
    Total.ColorsUsed = std::max(Total.ColorsUsed, S.ColorsUsed);
  }
  return Total;
}
