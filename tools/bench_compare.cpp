//===- tools/bench_compare.cpp - bench_service perf-regression gate -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Diffs a fresh bench_service report against the checked-in baseline
// (BENCH_service.json) and fails on regression, so scripts/run_all.sh can
// gate merges on service throughput/latency. Two modes:
//
//   bench_compare --schema REPORT.json
//       Validates one report in isolation: required keys present and of
//       the right type, every stats tally non-negative, and the stats
//       conservation law (submitted == completed + failed + shed_*).
//
//   bench_compare --fresh FRESH.json --baseline BASELINE.json
//                 [--tolerance F] [--throughput-floor R]
//                 [--latency-slack-ms MS]
//       Schema-checks both reports, then enforces:
//         - throughput >= baseline * (1 - tolerance), and >= the absolute
//           floor when one is given;
//         - p50/p99 latency <= baseline * (1 + tolerance) + slack (the
//           additive slack absorbs scheduler noise on sub-50us medians).
//
// Exit codes follow the repo convention: 0 pass, 1 regression or invalid
// report, 2 usage error. Every verdict line is printed (PASS or FAIL per
// check) so CI logs show the margins, not just the outcome.
//
//===----------------------------------------------------------------------===//

#include "support/JsonValue.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using cogent::ErrorOr;
using cogent::support::JsonValue;
using cogent::support::parseJson;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --schema REPORT.json\n"
      "       %s --fresh FRESH.json --baseline BASELINE.json\n"
      "          [--tolerance F] [--throughput-floor REQ_PER_S]\n"
      "          [--latency-slack-ms MS]\n"
      "\n"
      "Validates bench_service JSON reports and gates on perf regressions.\n"
      "  --schema            validate one report and exit\n"
      "  --tolerance F       relative margin for throughput/latency drift\n"
      "                      (default 0.5, i.e. 50%%)\n"
      "  --throughput-floor  absolute req/s floor on the fresh report\n"
      "  --latency-slack-ms  additive latency allowance on top of the\n"
      "                      relative margin (default 0.05 ms)\n",
      Argv0, Argv0);
  return 2;
}

ErrorOr<std::string> readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return cogent::Error(cogent::ErrorCode::InvalidSpec,
                         "cannot open '" + Path + "'");
  std::string Content;
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    Content.append(Buffer, Read);
  std::fclose(F);
  return Content;
}

/// The stats tallies every bench_service report must carry, all >= 0.
const char *const StatKeys[] = {
    "submitted",       "completed",      "failed",
    "shed_queue_full", "shed_overloaded", "shed_expired",
    "retries",         "coalesced",      "cache_hits",
    "cache_misses",    "quarantined",    "breaker_trips",
    "breaker_resets",  "deadline_degraded", "deadline_expired",
};

/// Top-level numeric keys a report must carry. race_findings /
/// race_rejections are the race-prover lint totals across the run
/// (KernelLint passes 10-12); findings may include benign warnings but a
/// rejection means the strict gate threw away a kernel for a proven race
/// or divergent barrier, which the TCCG suite must never produce.
const char *const NumberKeys[] = {
    "workers",           "client_threads", "requests_per_client",
    "deadline_ms",       "warmup_requests", "warmup_ms",
    "warmup_failures",   "steady_requests", "steady_ms",
    "throughput_req_per_s", "latency_p50_ms", "latency_p99_ms",
    "race_findings",     "race_rejections",
};

/// Validates one parsed report; prints one line per violation. Returns
/// the number of violations.
int checkSchema(const JsonValue &Report, const std::string &Label) {
  int Violations = 0;
  auto Complain = [&](const std::string &Msg) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", Label.c_str(),
                 Msg.c_str());
    ++Violations;
  };

  if (!Report.isObject()) {
    Complain("top-level value is not an object");
    return Violations;
  }
  for (const char *Key : {"bench", "suite", "device"}) {
    const JsonValue *V = Report.find(Key);
    if (!V || !V->isString())
      Complain(std::string("missing string key '") + Key + "'");
  }
  for (const char *Key : NumberKeys) {
    auto N = Report.findNumber(Key);
    if (!N)
      Complain(std::string("missing numeric key '") + Key + "'");
    else if (*N < 0.0)
      Complain(std::string("negative value for '") + Key + "'");
  }

  const JsonValue *Stats = Report.find("stats");
  if (!Stats || !Stats->isObject()) {
    Complain("missing object key 'stats'");
    return Violations;
  }
  for (const char *Key : StatKeys) {
    auto N = Stats->findNumber(Key);
    if (!N)
      Complain(std::string("stats: missing numeric key '") + Key + "'");
    else if (*N < 0.0)
      Complain(std::string("stats: negative tally '") + Key + "'");
  }

  // The conservation law: nothing submitted may vanish. An idle service
  // has submitted == completed + failed + shed_*; a report violating it
  // lost or double-counted requests.
  auto Stat = [&](const char *Key) {
    return Stats->findNumber(Key).value_or(0.0);
  };
  double Submitted = Stat("submitted");
  double Accounted = Stat("completed") + Stat("failed") +
                     Stat("shed_queue_full") + Stat("shed_overloaded") +
                     Stat("shed_expired");
  if (Submitted != Accounted)
    Complain("stats conservation violated: submitted=" +
             std::to_string(Submitted) + " != completed+failed+shed=" +
             std::to_string(Accounted));

  // The race gate: a strict-gate race rejection in a benchmark run means
  // the generator emitted (and discarded) a kernel with a proven data
  // race or divergent barrier — a generator regression, never noise.
  double RaceRejections = Report.findNumber("race_rejections").value_or(0.0);
  if (RaceRejections != 0.0)
    Complain("race_rejections must be zero, got " +
             std::to_string(RaceRejections));
  return Violations;
}

ErrorOr<JsonValue> loadReport(const std::string &Path) {
  ErrorOr<std::string> Text = readFile(Path);
  if (!Text)
    return Text.takeError();
  return parseJson(*Text);
}

struct GateCheck {
  std::string Name;
  double Fresh;
  double Limit;
  bool UpperBound; ///< true: Fresh must be <= Limit; false: >= Limit.
};

} // namespace

int main(int Argc, char **Argv) {
  std::string SchemaPath;
  std::string FreshPath;
  std::string BaselinePath;
  double Tolerance = 0.5;
  double ThroughputFloor = 0.0;
  double LatencySlackMs = 0.05;

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "bench_compare: %s needs a value\n",
                     Arg.c_str());
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--schema") {
      const char *V = Value();
      if (!V)
        return 2;
      SchemaPath = V;
    } else if (Arg == "--fresh") {
      const char *V = Value();
      if (!V)
        return 2;
      FreshPath = V;
    } else if (Arg == "--baseline") {
      const char *V = Value();
      if (!V)
        return 2;
      BaselinePath = V;
    } else if (Arg == "--tolerance") {
      const char *V = Value();
      if (!V)
        return 2;
      Tolerance = std::strtod(V, nullptr);
    } else if (Arg == "--throughput-floor") {
      const char *V = Value();
      if (!V)
        return 2;
      ThroughputFloor = std::strtod(V, nullptr);
    } else if (Arg == "--latency-slack-ms") {
      const char *V = Value();
      if (!V)
        return 2;
      LatencySlackMs = std::strtod(V, nullptr);
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "bench_compare: unknown argument '%s'\n",
                   Arg.c_str());
      return usage(Argv[0]);
    }
  }

  if (!SchemaPath.empty()) {
    if (!FreshPath.empty() || !BaselinePath.empty())
      return usage(Argv[0]);
    ErrorOr<JsonValue> Report = loadReport(SchemaPath);
    if (!Report) {
      std::fprintf(stderr, "bench_compare: %s\n",
                   Report.error().message().c_str());
      return 1;
    }
    int Violations = checkSchema(*Report, SchemaPath);
    if (Violations) {
      std::fprintf(stderr, "bench_compare: FAIL: %d schema violation%s\n",
                   Violations, Violations == 1 ? "" : "s");
      return 1;
    }
    std::printf("bench_compare: PASS: %s schema valid\n", SchemaPath.c_str());
    return 0;
  }

  if (FreshPath.empty() || BaselinePath.empty())
    return usage(Argv[0]);
  if (Tolerance < 0.0 || Tolerance >= 1.0) {
    std::fprintf(stderr,
                 "bench_compare: --tolerance must be in [0, 1), got %g\n",
                 Tolerance);
    return 2;
  }

  ErrorOr<JsonValue> Fresh = loadReport(FreshPath);
  if (!Fresh) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 Fresh.error().message().c_str());
    return 1;
  }
  ErrorOr<JsonValue> Baseline = loadReport(BaselinePath);
  if (!Baseline) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 Baseline.error().message().c_str());
    return 1;
  }
  int Violations =
      checkSchema(*Fresh, FreshPath) + checkSchema(*Baseline, BaselinePath);
  if (Violations) {
    std::fprintf(stderr, "bench_compare: FAIL: %d schema violation%s\n",
                 Violations, Violations == 1 ? "" : "s");
    return 1;
  }

  auto Num = [](const JsonValue &Report, const char *Key) {
    return Report.findNumber(Key).value_or(0.0);
  };
  std::vector<GateCheck> Checks;
  Checks.push_back({"throughput_req_per_s", Num(*Fresh, "throughput_req_per_s"),
                    Num(*Baseline, "throughput_req_per_s") * (1.0 - Tolerance),
                    /*UpperBound=*/false});
  if (ThroughputFloor > 0.0)
    Checks.push_back({"throughput_floor", Num(*Fresh, "throughput_req_per_s"),
                      ThroughputFloor, /*UpperBound=*/false});
  for (const char *Key : {"latency_p50_ms", "latency_p99_ms"})
    Checks.push_back({Key, Num(*Fresh, Key),
                      Num(*Baseline, Key) * (1.0 + Tolerance) + LatencySlackMs,
                      /*UpperBound=*/true});

  int Failures = 0;
  for (const GateCheck &Check : Checks) {
    bool Ok = Check.UpperBound ? Check.Fresh <= Check.Limit
                               : Check.Fresh >= Check.Limit;
    std::printf("bench_compare: %s: %-22s %12.4f %s %12.4f\n",
                Ok ? "PASS" : "FAIL", Check.Name.c_str(), Check.Fresh,
                Check.UpperBound ? "<=" : ">=", Check.Limit);
    Failures += Ok ? 0 : 1;
  }
  if (Failures) {
    std::fprintf(stderr,
                 "bench_compare: FAIL: %d perf gate%s regressed vs %s\n",
                 Failures, Failures == 1 ? "" : "s", BaselinePath.c_str());
    return 1;
  }
  std::printf("bench_compare: PASS: %s within tolerance %.2f of %s\n",
              FreshPath.c_str(), Tolerance, BaselinePath.c_str());
  return 0;
}
