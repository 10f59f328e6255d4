//===- perfbench/src/main.cpp - rpbench entry point -----------------------===//
//
// Part of rpcc's benchmark (see perfbench/README.md). MIT license.
//
// Runs one workload (paper | serve | edit) for a seed and prints every
// metric with its unit and sample count, a provenance line, and as the last
// line of stdout the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// perfbench/run.py builds this binary and is the command to use.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <unistd.h>

using namespace rpbench;

namespace {

int usage() {
  std::fputs(
      "usage: rpbench --workload=paper|serve|edit --seed=N --seconds=N\n"
      "               --trace=0|1 --root=DIR --golden=DIR --daemon=PATH\n"
      "               [--out=DIR] [--source-id=S] [--corrupt-op=N]\n"
      "       rpbench --write-golden --root=DIR --golden=DIR\n",
      stderr);
  return 2;
}

bool flag(const char *Arg, const char *Name, std::string &Val) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Val = Arg + N + 1;
  return true;
}

bool toUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 19 ||
      S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return true;
}

std::string readLoadavg() {
  std::ifstream In("/proc/loadavg");
  std::string A, B, C;
  In >> A >> B >> C;
  return A + " " + B + " " + C;
}

/// Pins this process, and so every thread and process it starts (for serve
/// and edit the client threads, rpserved, its workers and its sandbox
/// children), to the last CPU it may use. The reference host is a 4-vCPU
/// guest on a shared host, and the hypervisor steals more of the guest's
/// CPU time the more of its vCPUs are busy: with the served loop on two
/// vCPUs 1-16% of CPU time was stolen, varying from run to run, and
/// `serve`'s p90 latency moved with it (quartile spread 0.18 over ten runs,
/// 0.44 over four in a busier spell); on one vCPU steal stayed near 1% and
/// the spread of ten runs was 0.04-0.14. Returns the CPU chosen.
std::string pinToLastCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return "unpinned";
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &Allowed)) {
      cpu_set_t Pin;
      CPU_ZERO(&Pin);
      CPU_SET(C, &Pin);
      return sched_setaffinity(0, sizeof(Pin), &Pin) == 0 ? std::to_string(C)
                                                          : "unpinned";
    }
  return "unpinned";
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  std::string SourceId = "unknown", Val;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    uint64_t U = 0;
    if (flag(Arg, "--workload", Val))
      A.Workload = Val;
    else if (flag(Arg, "--seed", Val) && toUnsigned(Val, U))
      A.Seed = U;
    else if (flag(Arg, "--seconds", Val) && toUnsigned(Val, U) && U >= 1 &&
             U <= 600)
      A.Seconds = static_cast<unsigned>(U);
    else if (flag(Arg, "--trace", Val) && (Val == "0" || Val == "1"))
      A.Trace = Val == "1";
    else if (flag(Arg, "--root", Val))
      A.Root = Val;
    else if (flag(Arg, "--golden", Val))
      A.Golden = Val;
    else if (flag(Arg, "--daemon", Val))
      A.Daemon = Val;
    else if (flag(Arg, "--out", Val))
      A.OutDir = Val;
    else if (flag(Arg, "--source-id", Val))
      SourceId = Val;
    else if (flag(Arg, "--corrupt-op", Val) && toUnsigned(Val, U))
      A.CorruptOp = static_cast<long>(U);
    else if (std::strcmp(Arg, "--write-golden") == 0)
      A.WriteGolden = true;
    else {
      std::fprintf(stderr, "rpbench: bad argument '%s'\n", Arg);
      return usage();
    }
  }
  if (A.Root.empty() || A.Golden.empty())
    return usage();
  if (A.WriteGolden)
    return writeGoldenFiles(A);

  // Every workload runs on one CPU: serve and edit run a two-worker daemon
  // and two client connections there, paper its one thread.
  std::string Cpus = pinToLastCpu();
  Result R;
  std::string Load0 = readLoadavg();
  int Rc;
  if (A.Workload == "paper")
    Rc = runPaper(A, R);
  else if (A.Workload == "serve" || A.Workload == "edit") {
    if (A.Daemon.empty())
      return usage();
    Rc = runServed(A, R);
  } else
    return usage();
  if (Rc != 0)
    return Rc;

  for (const MetricValue &M : R.Metrics)
    std::printf("%-28s %16s %-8s n=%llu\n", M.Name.c_str(), num(M.Value).c_str(),
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples));

  std::string Prov = "{\"provenance\":{";
  Prov += "\"workload\":\"" + A.Workload + "\"";
  Prov += ",\"seed\":" + std::to_string(A.Seed);
  Prov += ",\"seconds\":" + std::to_string(A.Seconds);
  Prov += ",\"trace\":" + std::string(A.Trace ? "1" : "0");
  Prov += ",\"source\":\"" + rpcc::jsonEscape(SourceId) + "\"";
  Prov += ",\"build_type\":\"" RPBENCH_BUILD_TYPE "\"";
  Prov += ",\"compiler\":\"" RPBENCH_COMPILER "\"";
  Prov += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  Prov += ",\"cpus\":\"" + Cpus + "\"";
  Prov += ",\"loadavg_start\":\"" + Load0 + "\"";
  Prov += ",\"loadavg_end\":\"" + readLoadavg() + "\"";
  for (const auto &[K, V] : R.Info)
    Prov += ",\"" + K + "\":\"" + rpcc::jsonEscape(V) + "\"";
  Prov += "}}";
  std::printf("%s\n", Prov.c_str());

  std::string Out = "{\"correct\":" + std::string(R.Correct ? "true" : "false");
  Out += ",\"attempted\":" + std::to_string(R.Attempted);
  Out += ",\"failed\":" + std::to_string(R.Failed);
  Out += ",\"metrics\":{";
  bool First = true;
  for (const MetricValue &M : R.Metrics) {
    Out += std::string(First ? "" : ",") + "\"" + M.Name + "\":{\"value\":" +
           num(M.Value) + ",\"unit\":\"" + M.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return 0;
}
