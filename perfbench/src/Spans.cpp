//===- perfbench/src/Spans.cpp - Span linking, self time, Chrome trace -----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/JsonWriter.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

namespace {

/// Clock reads on either side of a span boundary can disagree by a few
/// nanoseconds when the span comes from another timer (the library's
/// TraceSession); containment tolerates that much.
constexpr double ContainSlackUs = 0.5;

bool contains(const Span &Outer, const Span &Inner) {
  return Outer.StartUs <= Inner.StartUs + ContainSlackUs &&
         Inner.EndUs <= Outer.EndUs + ContainSlackUs;
}

} // namespace

void TracedWindow::addSpansTo(SpanLog &Log) const {
  for (const cogent::support::TraceEvent &E : Session.events())
    if (E.Phase == 'X')
      Log.add(Span{E.Name, OffsetUs + E.TimestampUs,
                   OffsetUs + E.TimestampUs + E.DurationUs, NoParent, 0,
                   E.ThreadId});
}

void perfbench::linkByContainment(std::vector<Span> &Spans) {
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  // Per thread, outer spans first: earlier start, then longer.
  std::stable_sort(Order.begin(), Order.end(), [&](size_t X, size_t Y) {
    const Span &A = Spans[X], &B = Spans[Y];
    if (A.Thread != B.Thread)
      return A.Thread < B.Thread;
    if (A.StartUs != B.StartUs)
      return A.StartUs < B.StartUs;
    return A.EndUs > B.EndUs;
  });
  std::vector<size_t> Open;
  uint32_t Thread = 0;
  for (size_t I : Order) {
    Span &S = Spans[I];
    if (Open.empty() || S.Thread != Thread)
      Open.clear();
    Thread = S.Thread;
    while (!Open.empty() && !contains(Spans[Open.back()], S))
      Open.pop_back();
    if (S.Parent == NoParent && !Open.empty())
      S.Parent = static_cast<int64_t>(Open.back());
    if (S.OpId == 0 && S.Parent != NoParent)
      S.OpId = Spans[static_cast<size_t>(S.Parent)].OpId;
    Open.push_back(I);
  }
}

std::vector<double> perfbench::selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != NoParent)
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.StartUs,
                                                           S.EndUs);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Length of the union of the children, clipped to the parent.
    double Covered = 0.0, RunStart = 0.0, RunEnd = 0.0;
    bool InRun = false;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, P.StartUs);
      End = std::min(End, P.EndUs);
      if (End <= Start)
        continue;
      if (InRun && Start <= RunEnd) {
        RunEnd = std::max(RunEnd, End);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = Start;
      RunEnd = End;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = P.durationUs() - Covered;
  }
  return Self;
}

std::map<std::string, double>
perfbench::selfTimeByName(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

std::string perfbench::renderChromeTrace(const std::vector<Span> &Spans) {
  cogent::support::JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.member("name", S.Name);
    W.member("cat", "perfbench");
    W.member("ph", "X");
    W.member("ts", S.StartUs);
    W.member("dur", S.durationUs());
    W.member("pid", uint64_t(1));
    W.member("tid", uint64_t(S.Thread));
    W.key("args");
    W.beginObject();
    W.member("id", uint64_t(I));
    W.member("parent", S.Parent);
    W.member("op", S.OpId);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.member("displayTimeUnit", "ms");
  W.endObject();
  return W.take();
}

bool perfbench::writeTrace(const SpanLog &Log, const std::string &Path) {
  std::string Json = renderChromeTrace(Log.spans());
  if (!cogent::support::validateJson(Json))
    return false;
  if (Path.empty())
    return true;
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), File) == Json.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}

void perfbench::addSpanMetrics(const SpanLog &Log, uint64_t Ops,
                               RunResult &Out) {
  std::map<std::string, double> Self = selfTimeByName(Log.spans());
  double PerOp = Ops ? 1.0 / static_cast<double>(Ops) : 0.0;
  auto selfMs = [&](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : It->second / 1000.0 * PerOp;
  };
  Out.set("core.rank_ms", selfMs("cogent.rank"), "ms");
  Out.set("core.emit_phase_ms", selfMs("cogent.emit"), "ms");
  Out.Record["trace.spans"] = std::to_string(Log.spans().size());
}
