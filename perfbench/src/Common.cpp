//===- perfbench/src/Common.cpp - Grid, statistics, host facts ------------===//

#include "Bench.h"

#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rpcc;
using namespace rpbench;

std::string rpbench::configName(const Config &C) {
  return std::string(C.PointsTo ? "pointer" : "modref") +
         (C.Promote ? "/with" : "/without") + "/r" +
         std::to_string(C.Registers);
}

std::vector<Config> rpbench::paperConfigs() {
  std::vector<Config> Out;
  for (int A = 0; A != 2; ++A)
    for (int P = 0; P != 2; ++P)
      Out.push_back({A == 1, P == 1, 16});
  return Out;
}

std::vector<Config> rpbench::servedConfigs() {
  std::vector<Config> Out;
  for (unsigned Regs : {8u, 16u})
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P)
        Out.push_back({A == 1, P == 1, Regs});
  return Out;
}

CompilerConfig rpbench::compilerConfig(const Config &C) {
  CompilerConfig Cfg;
  Cfg.Analysis = C.PointsTo ? AnalysisKind::PointsTo : AnalysisKind::ModRef;
  Cfg.ScalarPromotion = C.Promote;
  Cfg.NumRegisters = C.Registers;
  return Cfg;
}

std::vector<Program> rpbench::loadPrograms(const std::string &Root) {
  std::vector<Program> Out;
  for (const std::string &Name : benchProgramNames()) {
    std::ifstream In(Root + "/bench/programs/" + Name + ".c");
    if (!In)
      return {};
    std::ostringstream SS;
    SS << In.rdbuf();
    Out.push_back({Name, SS.str()});
  }
  return Out;
}

std::vector<size_t> rpbench::seededCycles(uint64_t Seed, size_t Cycle,
                                          uint64_t N) {
  std::mt19937_64 Rng(Seed);
  std::vector<size_t> Out;
  Out.reserve(N);
  std::vector<size_t> Block(Cycle);
  while (Out.size() < N) {
    std::iota(Block.begin(), Block.end(), 0);
    for (size_t I = Cycle - 1; I > 0; --I)
      std::swap(Block[I], Block[Rng() % (I + 1)]);
    for (size_t B : Block)
      if (Out.size() < N)
        Out.push_back(B);
  }
  return Out;
}

std::string rpbench::fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

double rpbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

double rpbench::median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

namespace {

std::vector<double> blockRates(const OpTimes &T, size_t Block) {
  std::vector<double> Rates;
  for (size_t B = 0; B + Block <= T.Start.size(); B += Block) {
    double First = *std::min_element(T.Start.begin() + B,
                                     T.Start.begin() + B + Block);
    double Last = *std::max_element(T.End.begin() + B,
                                    T.End.begin() + B + Block);
    Rates.push_back(Block / ((Last - First) / 1000.0));
  }
  return Rates;
}

} // namespace

double rpbench::medianBlockRate(const OpTimes &T, size_t Block) {
  return median(blockRates(T, Block));
}

std::string rpbench::blockRateSpread(const OpTimes &T, size_t Block) {
  std::vector<double> R = blockRates(T, Block);
  std::string S;
  for (double P : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    if (!S.empty())
      S += '/';
    S += fmt(percentile(R, P));
  }
  return S;
}

void StealMeter::read(double &Steal, double &Total) {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  Steal = Total = 0;
  for (int Field = 0; Field != 8; ++Field) {
    double V = 0;
    In >> V;
    Total += V;
    if (Field == 7)
      Steal = V;
  }
}

double StealMeter::frac() const {
  double Steal, Total;
  read(Steal, Total);
  return Total > Total0 ? (Steal - Steal0) / (Total - Total0) : 0;
}

double rpbench::medianBlockPercentile(const OpTimes &T, size_t Block,
                                      double P) {
  std::vector<double> Per;
  for (size_t B = 0; B + Block <= T.Start.size(); B += Block) {
    std::vector<double> Lat;
    for (size_t I = B; I != B + Block; ++I)
      Lat.push_back(T.End[I] - T.Start[I]);
    Per.push_back(percentile(std::move(Lat), P));
  }
  return median(Per);
}

double rpbench::memoryProbeMs() {
  int P[2];
  if (::pipe(P) != 0)
    return -1;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(P[0]);
    ::close(P[1]);
    return -1;
  }
  if (Pid == 0) {
    // 4M 8-byte slots linked in one random cycle (Sattolo's shuffle): every
    // step is a dependent cache miss, so the time tracks memory latency
    // under whatever else the host is running.
    std::vector<uint64_t> Next(size_t(4) << 20);
    std::iota(Next.begin(), Next.end(), 0);
    uint64_t X = 0x9E3779B97F4A7C15ull;
    for (size_t I = Next.size() - 1; I > 0; --I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      std::swap(Next[I], Next[X % I]);
    }
    double T0 = timingNowMs();
    uint64_t At = 0;
    for (size_t I = 0; I != 1000000; ++I)
      At = Next[At];
    double Ms = timingNowMs() - T0 + (At == Next.size() ? 1 : 0);
    ssize_t W = ::write(P[1], &Ms, sizeof(Ms));
    _exit(W == sizeof(Ms) ? 0 : 1);
  }
  ::close(P[1]);
  double Ms = -1;
  if (::read(P[0], &Ms, sizeof(Ms)) != sizeof(Ms))
    Ms = -1;
  ::close(P[0]);
  ::waitpid(Pid, nullptr, 0);
  return Ms;
}

double rpbench::selfCpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double rpbench::selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned rpbench::phaseSeconds(const Args &A) {
  return A.Trace ? std::max(1u, A.Seconds / 2) : A.Seconds;
}

uint64_t rpbench::opCount(unsigned Seconds, double NominalOpsPerSec,
                          uint64_t Cycle, uint64_t MinOps) {
  double Want = std::max<double>(static_cast<double>(MinOps),
                                 Seconds * NominalOpsPerSec);
  uint64_t Cycles = static_cast<uint64_t>(
      std::ceil(Want / static_cast<double>(Cycle) - 1e-9));
  return std::max<uint64_t>(1, Cycles) * Cycle;
}
