//===- perfbench/src/main.cpp - End-to-end benchmark entry point -----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--rate R] [--slo-ms L] [--late-bound-ms B] [--trace-out FILE]
///
/// Runs one workload in-process and prints one JSON document on stdout with
/// every metric it measured (value, unit, sample count), the run record
/// (seed, nproc, thread counts, build type) and the correctness tally.
/// run.py turns it into the benchmark's result line.
///
/// Exit codes: 0 all operations succeeded and every output check passed;
/// 1 a failed operation or output mismatch; 2 usage error; 3 the run is
/// invalid (the open-loop generator could not keep its schedule in most
/// windows of every attempt).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/JsonWriter.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_top1|cold_top8|warm_hits|mixed_open --seed N "
               "--seconds S --trace 0|1 [--rate R] [--slo-ms L] "
               "[--late-bound-ms B] [--trace-out FILE]\n",
               Why);
  return 2;
}

std::string render(const RunArgs &Args, const RunResult &R) {
  cogent::support::JsonWriter W;
  W.beginObject();
  W.member("correct", R.Correct && R.Failed == 0);
  W.member("invalid", R.Invalid);
  if (R.Invalid)
    W.member("invalid_reason", R.InvalidReason);
  W.member("attempted", R.Attempted);
  W.member("failed", R.Failed);
  W.key("metrics");
  W.beginObject();
  for (const auto &[Name, M] : R.Metrics) {
    W.key(Name);
    W.beginObject();
    W.member("value", M.Value);
    W.member("unit", M.Unit);
    if (M.Samples)
      W.member("samples", uint64_t(M.Samples));
    W.endObject();
  }
  W.endObject();
  W.key("record");
  W.beginObject();
  W.member("workload", Args.Workload);
  W.member("seed", Args.Seed);
  W.member("seconds", Args.Seconds);
  W.member("trace", Args.Trace);
  W.member("nproc", std::thread::hardware_concurrency());
  W.member("build_type", PERFBENCH_BUILD_TYPE);
  if (Args.SloMs > 0)
    W.member("slo_ms", Args.SloMs);
  for (const auto &[Key, Value] : R.Record)
    W.member(Key, Value);
  W.endObject();
  W.key("errors");
  W.beginArray();
  for (const std::string &E : R.Errors)
    W.value(E);
  W.endArray();
  W.endObject();
  return W.take();
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Args.Workload = Value;
      continue;
    }
    if (Flag == "--trace-out") {
      Args.TracePath = Value;
      continue;
    }
    double Number = std::strtod(Value, &End);
    if (End == Value || *End != '\0')
      return usage(("not a number: " + Flag + " " + Value).c_str());
    if (Flag == "--seed") {
      Args.Seed = std::strtoull(Value, nullptr, 10);
      HaveSeed = true;
    } else if (Flag == "--seconds")
      Args.Seconds = Number;
    else if (Flag == "--trace")
      Args.Trace = Number != 0.0;
    else if (Flag == "--rate")
      Args.RatePerS = Number;
    else if (Flag == "--slo-ms")
      Args.SloMs = Number;
    else if (Flag == "--late-bound-ms")
      Args.LateBoundMs = Number;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (!HaveSeed || Args.Workload.empty() || Args.Seconds <= 0.0)
    return usage("--workload, --seed and a positive --seconds are required");

  RunResult R;
  if (Args.Workload == "cold_top1")
    R = runColdWorkload(Args, 1);
  else if (Args.Workload == "cold_top8")
    R = runColdWorkload(Args, 8);
  else if (Args.Workload == "warm_hits")
    R = runWarmHits(Args);
  else if (Args.Workload == "mixed_open")
    R = runMixedOpen(Args);
  else
    return usage(("unknown workload " + Args.Workload).c_str());

  std::printf("%s\n", render(Args, R).c_str());
  std::fflush(stdout);
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "perfbench: %s\n", E.c_str());
  if (R.Invalid) {
    std::fprintf(stderr, "perfbench: run invalid: %s\n",
                 R.InvalidReason.c_str());
    return 3;
  }
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
