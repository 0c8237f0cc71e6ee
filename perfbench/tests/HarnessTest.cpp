//===- perfbench/tests/HarnessTest.cpp - Tests of the benchmark harness ----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tests: the percentile rule (ten samples beyond),
/// the floor scoring of cold sweeps, the window quartiles and the windows
/// they leave out, determinism of the open-loop
/// schedule, the self-time arithmetic, the Chrome-trace rendering, and that
/// the output check fails when it is fed a deliberately perturbed
/// reference.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "gpu/DeviceSpec.h"
#include "support/JsonWriter.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;

namespace {

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I) // descending: percentile must sort
    V.push_back(static_cast<double>(I));
  return V;
}

TEST(Percentile, NearestRankWithSamplesBeyond) {
  Percentile P99 = percentile(oneTo(1000), 99.0);
  EXPECT_EQ(P99.Value, 990.0);
  EXPECT_EQ(P99.Samples, 1000u);
  EXPECT_EQ(P99.Beyond, 10u);
  EXPECT_GE(P99.Beyond, MinSamplesBeyond);

  Percentile Short = percentile(oneTo(999), 99.0);
  EXPECT_EQ(Short.Beyond, 9u);
  EXPECT_LT(Short.Beyond, MinSamplesBeyond);

  Percentile P50 = percentile(oneTo(20), 50.0);
  EXPECT_EQ(P50.Value, 10.0);
  EXPECT_EQ(P50.Beyond, 10u);
}

TEST(Percentile, SamplesNeeded) {
  EXPECT_EQ(samplesNeededFor(99.0), 1000u);
  EXPECT_EQ(samplesNeededFor(50.0), 20u);
  for (double P : {50.0, 90.0, 99.0}) {
    size_t N = samplesNeededFor(P);
    EXPECT_GE(percentile(oneTo(N), P).Beyond, MinSamplesBeyond);
    EXPECT_LT(percentile(oneTo(N - 1), P).Beyond, MinSamplesBeyond);
  }
}

TEST(Percentile, MedianAndGeomean) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
}

TEST(Percentile, FloorsScoreEachInputAtItsBestPass) {
  // 100 inputs, input I costs I + 1 ms at best; every pass but one is
  // slowed by a different amount, and input 99 hits a 600 ms stall once.
  std::vector<std::vector<double>> Passes;
  for (size_t P = 0; P < 11; ++P) {
    std::vector<double> Lat;
    for (size_t I = 0; I < 100; ++I)
      Lat.push_back((I + 1.0) * (1.0 + 0.1 * static_cast<double>(P % 4)));
    Passes.push_back(Lat);
  }
  Passes[5][99] = 600.0;
  FloorSummary F = summarizeFloors(Passes);
  ASSERT_EQ(F.Floors.size(), 100u);
  EXPECT_EQ(F.Floors[0], 1.0);
  EXPECT_EQ(F.Floors[99], 100.0);
  EXPECT_NEAR(F.OpsPerS, 100.0 * 1000.0 / 5050.0, 1e-9);
  // 1100 scored generations, 11 per input: the median is input 49's
  // floor, and the p99 (rank 1089) input 98's, with 11 samples beyond.
  EXPECT_EQ(F.P50.Samples, 1100u);
  EXPECT_EQ(F.P50.Value, 50.0);
  EXPECT_EQ(F.P99.Value, 99.0);
  EXPECT_EQ(F.P99.Beyond, 11u);
}

TEST(Percentile, WindowQuartilesLeaveOutSkippedWindows) {
  // Four 1 s windows; window W's samples are (W + 1) times 1..1000 ms,
  // except that window 0 has only the odd ones (half the throughput, and
  // a p99 of 989).
  WindowedLatency Lat(1.0);
  for (size_t W = 0; W < 4; ++W)
    for (size_t I = 1; I <= 1000; I += W == 0 ? 2 : 1)
      Lat.add(static_cast<double>(W) + 0.0005 * static_cast<double>(I),
              static_cast<double>((W + 1) * I));
  std::vector<double> P99 = Lat.windowPercentiles(4.0, 99.0);
  ASSERT_EQ(P99.size(), 4u);
  EXPECT_EQ(P99[0], 989.0);
  EXPECT_EQ(P99[3], 4 * 990.0);

  WindowedLatency::Summary All = Lat.summarize(4.0);
  EXPECT_EQ(All.Windows, 4u);
  EXPECT_EQ(All.Used, 4u);
  EXPECT_EQ(All.Samples, 3500u);
  EXPECT_EQ(All.FastP99, 989.0);
  EXPECT_EQ(All.FastOpsPerS, 1000.0);

  // Leaving out windows 0 and 1: the lower quartile of the rest is
  // window 2, the upper quartile of their throughputs 1000 req/s.
  WindowedLatency::Summary Some = Lat.summarize(4.0, {true, true});
  EXPECT_EQ(Some.Windows, 4u);
  EXPECT_EQ(Some.Used, 2u);
  EXPECT_EQ(Some.Samples, 3500u);
  EXPECT_EQ(Some.FastP50, 3 * 500.0);
  EXPECT_EQ(Some.FastP99, 3 * 990.0);
  EXPECT_EQ(Some.FastOpsPerS, 1000.0);
  EXPECT_EQ(Some.WindowP99.size(), 4u);
}

OpenLoopMix testMix() {
  OpenLoopMix Mix;
  Mix.RatePerS = 500.0;
  Mix.Seconds = 4.0;
  Mix.BlockSize = 20;
  Mix.MissesPerBlock = 2;
  Mix.DuplicateEvery = 2;
  Mix.MinExtent = 12;
  Mix.MaxExtent = 36;
  return Mix;
}

bool sameSchedule(const OpenLoopSchedule &X, const OpenLoopSchedule &Y) {
  if (X.Arrivals.size() != Y.Arrivals.size() ||
      X.Inputs.size() != Y.Inputs.size())
    return false;
  for (size_t I = 0; I < X.Arrivals.size(); ++I)
    if (X.Arrivals[I].DueMs != Y.Arrivals[I].DueMs ||
        X.Arrivals[I].Kind != Y.Arrivals[I].Kind ||
        X.Arrivals[I].Input != Y.Arrivals[I].Input)
      return false;
  for (size_t I = 0; I < X.Inputs.size(); ++I)
    if (X.Inputs[I].Spec != Y.Inputs[I].Spec ||
        X.Inputs[I].Dims != Y.Inputs[I].Dims)
      return false;
  return true;
}

TEST(OpenLoopSchedule, IdenticalForOneSeed) {
  std::vector<Request> Warm = cappedSuite(24);
  OpenLoopSchedule A = buildOpenLoopSchedule(Warm, testMix(), 7);
  OpenLoopSchedule B = buildOpenLoopSchedule(Warm, testMix(), 7);
  OpenLoopSchedule C = buildOpenLoopSchedule(Warm, testMix(), 8);
  EXPECT_TRUE(sameSchedule(A, B));
  EXPECT_FALSE(sameSchedule(A, C));
}

TEST(OpenLoopSchedule, FixedRateAndMix) {
  std::vector<Request> Warm = cappedSuite(24);
  ASSERT_EQ(Warm.size(), 48u);
  OpenLoopSchedule S = buildOpenLoopSchedule(Warm, testMix(), 3);
  ASSERT_EQ(S.Arrivals.size(), 2000u);
  std::set<size_t> MissInputs;
  size_t Misses = 0;
  for (size_t I = 0; I < S.Arrivals.size(); ++I) {
    const Arrival &A = S.Arrivals[I];
    EXPECT_DOUBLE_EQ(A.DueMs, 2.0 * static_cast<double>(I));
    ASSERT_LT(A.Input, S.Inputs.size());
    switch (A.Kind) {
    case ArrivalKind::Hit:
      EXPECT_LT(A.Input, Warm.size());
      break;
    case ArrivalKind::Miss:
      ++Misses;
      EXPECT_GE(A.Input, Warm.size());
      EXPECT_TRUE(MissInputs.insert(A.Input).second) << "miss reused";
      for (const auto &[Name, Extent] : S.Inputs[A.Input].Dims) {
        EXPECT_GE(Extent, 12);
        EXPECT_LE(Extent, 36);
      }
      break;
    case ArrivalKind::Duplicate:
      ASSERT_GT(I, 0u);
      EXPECT_EQ(S.Arrivals[I - 1].Kind, ArrivalKind::Miss);
      EXPECT_EQ(S.Arrivals[I - 1].Input, A.Input);
      break;
    }
  }
  EXPECT_EQ(S.Inputs.size(), Warm.size() + Misses);
  EXPECT_EQ(Misses, 200u); // 2 in every block of 20
  size_t Duplicates = 0;
  for (const Arrival &A : S.Arrivals)
    Duplicates += A.Kind == ArrivalKind::Duplicate;
  EXPECT_EQ(Duplicates, 100u);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> Spans = {
      {"parent", 0.0, 100.0, NoParent, 1, 0},
      {"a", 10.0, 30.0, 0, 1, 0},
      {"b", 20.0, 50.0, 0, 1, 0},  // overlaps a: counted once
      {"c", 90.0, 120.0, 0, 1, 0}, // clipped at the parent's end
      {"leaf", 12.0, 14.0, 1, 1, 0},
  };
  std::vector<double> Self = selfTimesUs(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(Self[1], 20.0 - 2.0);
  EXPECT_DOUBLE_EQ(Self[2], 30.0);
  EXPECT_DOUBLE_EQ(Self[3], 30.0);
  EXPECT_DOUBLE_EQ(Self[4], 2.0);
  std::map<std::string, double> ByName = selfTimeByName(Spans);
  EXPECT_DOUBLE_EQ(ByName["parent"], 50.0);
}

TEST(Spans, LinkByContainmentPerThread) {
  std::vector<Span> Spans = {
      {"inner", 20.0, 30.0, NoParent, 0, 1},
      {"op", 0.0, 100.0, NoParent, 42, 1},
      {"mid", 10.0, 60.0, NoParent, 0, 1},
      {"other-thread", 20.0, 30.0, NoParent, 0, 2},
  };
  linkByContainment(Spans);
  EXPECT_EQ(Spans[1].Parent, NoParent);
  EXPECT_EQ(Spans[2].Parent, 1);
  EXPECT_EQ(Spans[0].Parent, 2);
  EXPECT_EQ(Spans[0].OpId, 42u);
  EXPECT_EQ(Spans[3].Parent, NoParent);
  EXPECT_EQ(Spans[3].OpId, 0u);
}

TEST(Spans, AppendRebasesParents) {
  SpanLog Log;
  Log.add({"first", 0.0, 1.0, NoParent, 1, 0});
  Log.append({{"op", 0.0, 5.0, NoParent, 2, 1}, {"child", 1.0, 2.0, 0, 2, 1}});
  ASSERT_EQ(Log.spans().size(), 3u);
  EXPECT_EQ(Log.spans()[2].Parent, 1);
}

TEST(Spans, ChromeTraceIsWellFormed) {
  std::vector<Span> Spans = {{"op \"quoted\"", 0.0, 5.0, NoParent, 1, 0},
                             {"child", 1.0, 2.0, 0, 1, 0}};
  std::string Json = renderChromeTrace(Spans);
  EXPECT_TRUE(cogent::support::validateJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"parent\":0"), std::string::npos);
}

/// The kernel the generator selects for the paper's Eq. 1 at a small size.
cogent::core::GenerationResult eq1Kernel() {
  cogent::core::Cogent Generator(cogent::gpu::makeV100());
  auto R = Generator.generate("abcd-aebf-dfce", {{'a', 16},
                                                 {'b', 16},
                                                 {'c', 16},
                                                 {'d', 16},
                                                 {'e', 16},
                                                 {'f', 16}});
  EXPECT_TRUE(R.hasValue());
  return *R;
}

TEST(OutputCheck, PassesAgainstTheReference) {
  cogent::core::GenerationResult R = eq1Kernel();
  auto TC = cogent::ir::Contraction::parseUniform("abcd-aebf-dfce", 16);
  ASSERT_TRUE(TC.hasValue());
  OutputVerdict V = checkKernelOutput(*TC, R.best().Config, 1);
  EXPECT_TRUE(V.Ok) << V.Note;
  EXPECT_LE(V.MaxAbsError, V.Allowed);
}

TEST(OutputCheck, FailsOnAPerturbedReference) {
  cogent::core::GenerationResult R = eq1Kernel();
  auto TC = cogent::ir::Contraction::parseUniform("abcd-aebf-dfce", 16);
  ASSERT_TRUE(TC.hasValue());
  ReferenceFn Exact = defaultReference();
  ReferenceFn Perturbed = [&](const cogent::ir::Contraction &Small,
                              cogent::tensor::Tensor<double> &C,
                              const cogent::tensor::Tensor<double> &A,
                              const cogent::tensor::Tensor<double> &B) {
    Exact(Small, C, A, B);
    C.at(C.numElements() / 2) += 1e-6;
  };
  OutputVerdict V = checkKernelOutput(*TC, R.best().Config, 1, Perturbed);
  EXPECT_FALSE(V.Ok);
  EXPECT_GT(V.MaxAbsError, V.Allowed);
  EXPECT_FALSE(V.Note.empty());
}

} // namespace
