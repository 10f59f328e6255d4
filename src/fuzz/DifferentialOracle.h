//===- fuzz/DifferentialOracle.h - Cross-config behavior oracle -*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle: one program compiled under every pipeline
/// configuration must behave identically. Alias analysis choice, promotion,
/// scalar optimization, allocator vintage, and register count may change
/// the operation counts — never the exit code or the bytes printed. Any
/// cell that disagrees with the first (weakest) configuration is a compiler
/// bug by definition.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_FUZZ_DIFFERENTIALORACLE_H
#define RPCC_FUZZ_DIFFERENTIALORACLE_H

#include "driver/Compiler.h"

#include <string>
#include <utility>
#include <vector>

namespace rpcc {

class ArtifactCache;

/// One cell of the differential matrix.
struct FuzzConfig {
  AnalysisKind Analysis = AnalysisKind::ModRef;
  bool Promo = false;
  bool PtrPromo = false;
  bool Opts = false;
  bool Classic = false;
  unsigned Regs = 16;

  std::string name() const;
  CompilerConfig toCompilerConfig() const;
};

/// Full cross product {modref,pointer} x {-,+promo} x {-,+opts} x
/// {modern,classic alloc} x regs {8,16,32}, plus pointer-promotion cells.
std::vector<FuzzConfig> fullMatrix();

/// A small spanning subset for smoke tests: both analyses, promotion on and
/// off, optimization on and off, one classic-allocator and one low-register
/// cell.
std::vector<FuzzConfig> quickMatrix();

struct OracleResult {
  bool Ok = true;
  std::string FailingConfig; ///< name of the first divergent/broken cell
  std::string Message;       ///< what went wrong, human-readable
  /// Informational: dynamic loads per cell, index-aligned with the matrix
  /// (0 for cells that failed). Count deltas are advisory only — promotion
  /// can legally add loads (zero-trip landing pads) or spills (low R).
  std::vector<uint64_t> Loads;
};

/// Compiles and runs \p Source under every cell of \p Matrix and compares
/// observable behavior (exit code, stdout) against cell 0. When \p Cache is
/// non-null the cells share its stored prefix, and cells of one suffix key
/// share one module (the matrix re-compiles one program dozens of times, so
/// this is the fuzzer's hot path); the verdict is identical with or without
/// a store.
OracleResult checkProgram(const std::string &Source,
                          const std::vector<FuzzConfig> &Matrix,
                          const InterpOptions &IO = {},
                          ArtifactCache *Cache = nullptr);

/// (without, with) index pairs of cells identical except scalar promotion.
/// Per program the load delta can go either way (landing-pad loads, spill
/// code), but summed over a corpus promotion must not add loads — that is
/// the paper's whole point. Callers accumulate OracleResult::Loads over
/// many seeds and compare the aggregates at these pairs. Cells with fewer
/// than 16 registers are excluded: there promotion raises pressure enough
/// that spill loads legitimately outweigh the savings (the paper's §3.4
/// "water" anecdote), so no aggregate invariant holds.
std::vector<std::pair<size_t, size_t>>
promotionPairs(const std::vector<FuzzConfig> &Matrix);

} // namespace rpcc

#endif // RPCC_FUZZ_DIFFERENTIALORACLE_H
