//===- perfbench/src/Bench.h - Shared harness declarations ------*- C++ -*-===//
//
// Part of rpcc's benchmark (see perfbench/README.md). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the rpbench harness: the command line, the
/// (program, config) grid the workloads draw from, golden-file access, the
/// span log of the traced run and the pass-by-pass replica of the pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef RPBENCH_BENCH_H
#define RPBENCH_BENCH_H

#include "driver/Compiler.h"
#include "interp/Interpreter.h"
#include "support/JsonParse.h"

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace rpbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string Root;   ///< checkout root; programs are read from bench/programs
  std::string Golden; ///< directory of the committed golden files
  std::string Daemon; ///< rpserved binary
  std::string OutDir = "."; ///< where the traced run writes its spans
  /// Self-test hook: the reply of this timed op is corrupted before the
  /// golden check (negative = none).
  long CorruptOp = -1;
  bool WriteGolden = false;
};

//===----------------------------------------------------------------------===//
// The (program, config) grid
//===----------------------------------------------------------------------===//

struct Config {
  bool PointsTo = false;
  bool Promote = true;
  unsigned Registers = 16;
};

/// "modref/with/r16"-style name; golden keys are "<program>/<configName>".
std::string configName(const Config &C);

/// The paper's 2x2 matrix at 16 registers, in SuiteRunner's cell order
/// (modref/without, modref/with, pointer/without, pointer/with).
std::vector<Config> paperConfigs();

/// The served grid: analysis x promotion x registers in {8, 16}.
std::vector<Config> servedConfigs();

rpcc::CompilerConfig compilerConfig(const Config &C);

struct Program {
  std::string Name;
  std::string Source;
};

/// Reads the 14 suite programs from <Root>/bench/programs.
std::vector<Program> loadPrograms(const std::string &Root);

//===----------------------------------------------------------------------===//
// Golden files
//===----------------------------------------------------------------------===//

/// Deterministic facts about one (program, config) pair. Run fields come
/// from the reference switch engine; compile fields from compileProgram.
struct GoldenEntry {
  int64_t ExitCode = 0;
  std::string OutputDigest; ///< fnv1a64 of the program's stdout, 16 hex
  uint64_t Total = 0, Loads = 0, Stores = 0;
  uint64_t StaticOps = 0, PromotedTags = 0, RewrittenOps = 0;
};

struct Golden {
  std::map<std::string, GoldenEntry> Entries;
  std::map<std::string, std::string> Tables; ///< fig5/fig6/fig7 (paper)
  const GoldenEntry *find(const std::string &Key) const;
};

std::string outputDigest(const std::string &Output);
bool loadGolden(const std::string &Path, Golden &G, std::string &Err);
/// Computes and writes paper.json, serve.json and edit.json.
int writeGoldenFiles(const Args &A);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct MetricValue {
  std::string Name, Unit;
  double Value = 0;
  uint64_t Samples = 0; ///< observations behind the value
};

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<MetricValue> Metrics;
  /// Extra facts for the provenance line (host probe, overheads, ...).
  std::vector<std::pair<std::string, std::string>> Info;
  void add(const std::string &Name, const std::string &Unit, double V,
           uint64_t Samples) {
    Metrics.push_back({Name, Unit, V, Samples});
  }
};

/// \p N indices in [0, Cycle): consecutive blocks of \p Cycle, each a
/// permutation drawn from \p Seed (Fisher-Yates over mt19937_64, whose
/// output the standard fixes, so a seed means the same order everywhere).
std::vector<size_t> seededCycles(uint64_t Seed, size_t Cycle, uint64_t N);

/// Fixed-point text with enough digits for a timing ("%.6f").
std::string fmt(double V);

/// Percentile by linear interpolation between closest ranks.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);

/// Start and end (steady-clock ms) of every timed op, in op order.
struct OpTimes {
  std::vector<double> Start, End;
  void add(double S, double E) {
    Start.push_back(S);
    End.push_back(E);
  }
};

/// The timed phase split into consecutive blocks of \p Block ops (one
/// cycle or more). Host interference on the shared reference host (CPU
/// steal) arrives in episodes of a second or more, so the median over
/// blocks tracks the program while one slow episode moves it little.
/// Ops per second of the median block: Block / (last end - first start).
double medianBlockRate(const OpTimes &T, size_t Block);
/// Median over blocks of each block's latency percentile \p P.
double medianBlockPercentile(const OpTimes &T, size_t Block, double P);
/// "min/q1/median/q3/max" of the block rates, for the provenance line.
std::string blockRateSpread(const OpTimes &T, size_t Block);

/// Share of all CPU time the hypervisor gave to other guests (steal) since
/// the last call, host-wide, from /proc/stat: how contended the host was.
class StealMeter {
public:
  StealMeter() { read(Steal0, Total0); }
  double frac() const;

private:
  static void read(double &Steal, double &Total);
  double Steal0 = 0, Total0 = 0;
};

/// Milliseconds of a short pointer chase over a 32 MiB buffer, run in a
/// forked child so its memory never counts toward the benchmark's own peak
/// RSS. Timed before and after the timed phase, it tells a slow host from
/// a slow change; it is not a metric. Returns -1 if the child failed.
double memoryProbeMs();

/// User+system CPU of this process, in milliseconds.
double selfCpuMs();
/// Peak resident set of this process, in MB.
double selfPeakRssMb();

/// Number of timed ops for a workload: a whole number of cycles, at least
/// \p MinOps, sized so the timed phase lasts about \p Seconds on the
/// reference host at \p NominalOpsPerSec.
uint64_t opCount(unsigned Seconds, double NominalOpsPerSec, uint64_t Cycle,
                 uint64_t MinOps);

/// Seconds the timed phase is sized for. A traced run also replays every
/// op after (or beside) running it, so it sizes its phase at half of
/// --seconds to end in about the same time.
unsigned phaseSeconds(const Args &A);

int runPaper(const Args &A, Result &R);
int runServed(const Args &A, Result &R); ///< serve and edit

} // namespace rpbench

#endif // RPBENCH_BENCH_H
