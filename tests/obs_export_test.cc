// Exporter round-trips: JSONL -> strict load -> re-export is
// byte-identical (synthetic and live traces), the loader rejects every
// deviation, and the Chrome export is valid JSON whose "X" events pair
// every span open with its close.

#include "obs/export.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/experiment.h"

namespace sep2p {
namespace {

using obs::Event;
using obs::EventKind;
using obs::Trace;
using obs::TraceRecorder;

// ------------------------------------------- tiny strict JSON parser
// Just enough to assert "the Chrome export is valid JSON" without a
// JSON dependency: recursive descent over the full grammar, no repairs.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek('}')) { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek(']')) { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (!Peek('"')) return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// A synthetic trace touching every event kind and every field,
// including detail strings that need JSON escaping.
Trace MakeKitchenSinkTrace() {
  TraceRecorder rec;
  uint64_t clock = 0;
  rec.BindClock(&clock);
  rec.meta().node_count = 16;
  rec.meta().max_attempts = 5;

  const uint64_t outer = rec.OpenSpan(1, "selection");
  Event e;
  e.t_us = 5;
  e.kind = EventKind::kRpcBegin;
  e.node = 1;
  e.peer = 2;
  e.rpc = 7;
  rec.Record(e);
  e = Event{};
  e.t_us = 5;
  e.kind = EventKind::kAttempt;
  e.rpc = 7;
  e.value = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 5;
  e.kind = EventKind::kSend;
  e.node = 1;
  e.peer = 2;
  e.rpc = 7;
  e.seq = 3;
  e.value = 96;
  rec.Record(e);
  e = Event{};
  e.t_us = 9;
  e.kind = EventKind::kDrop;
  e.node = 2;
  e.peer = 1;
  e.rpc = 7;
  e.seq = 3;
  rec.Record(e);
  e = Event{};
  e.t_us = 40;
  e.kind = EventKind::kTimeout;
  e.rpc = 7;
  e.value = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 40;
  e.kind = EventKind::kRetry;
  e.rpc = 7;
  e.value = 2;
  rec.Record(e);
  e = Event{};
  e.t_us = 41;
  e.kind = EventKind::kDeliver;
  e.node = 2;
  e.peer = 1;
  e.rpc = 7;
  e.seq = 4;
  rec.Record(e);
  e = Event{};
  e.t_us = 60;
  e.kind = EventKind::kRpcEnd;
  e.rpc = 7;
  e.value = 2;
  rec.Record(e);
  e = Event{};
  e.t_us = 61;
  e.kind = EventKind::kRoute;
  e.node = 1;
  e.peer = 9;
  e.seq = 4;  // hops
  e.value = 12;
  rec.Record(e);
  e = Event{};
  e.t_us = 62;
  e.kind = EventKind::kCrash;
  e.node = 9;
  rec.Record(e);
  e = Event{};
  e.t_us = 63;
  e.kind = EventKind::kDispatch;
  e.node = 4;
  e.value = 2;
  rec.Record(e);
  clock = 70;
  rec.Signature(3, "sl-attest");
  rec.Mark(1, "label \"quoted\" \\ backslash", 42);
  const uint64_t inner = rec.OpenSpan(1, "sl-engage");
  clock = 80;
  rec.CloseSpan(inner);
  e = Event{};
  e.t_us = 81;
  e.kind = EventKind::kRpcBegin;
  e.node = 1;
  e.peer = 3;
  e.rpc = 8;
  rec.Record(e);
  e = Event{};
  e.t_us = 82;
  e.kind = EventKind::kRpcFail;
  e.rpc = 8;
  rec.Record(e);
  clock = 90;
  rec.CloseSpan(outer);
  return rec.trace();
}

TEST(JsonlTest, RoundTripIsByteIdentical) {
  const Trace trace = MakeKitchenSinkTrace();
  const std::string jsonl = obs::ToJsonl(trace);

  auto loaded = obs::FromJsonl(jsonl);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta, trace.meta);
  ASSERT_EQ(loaded->events.size(), trace.events.size());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(loaded->events[i], trace.events[i]) << "event " << i;
  }
  EXPECT_EQ(obs::ToJsonl(*loaded), jsonl);
}

TEST(JsonlTest, LiveSweepTraceRoundTripsByteIdentical) {
  sim::Parameters params;
  params.n = 800;
  params.actor_count = 8;
  params.cache_size = 128;
  std::vector<sim::MessageFailureSetting> settings(1);
  settings[0].drop_probability = 0.05;
  settings[0].jitter_mean_us = 10'000;

  std::vector<obs::TraceRecorder> recorders;
  sim::SweepObservers observers;
  observers.recorders = &recorders;
  auto points = sim::RunMessageFailureSweep(params, settings, /*trials=*/2,
                                            &observers);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(recorders.size(), 1u);
  ASSERT_GT(recorders[0].size(), 0u);

  const std::string jsonl = obs::ToJsonl(recorders[0].trace());
  auto loaded = obs::FromJsonl(jsonl);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta, recorders[0].trace().meta);
  EXPECT_EQ(loaded->events, recorders[0].trace().events);
  EXPECT_EQ(obs::ToJsonl(*loaded), jsonl);
}

TEST(JsonlTest, StrictLoaderRejectsEveryDeviation) {
  const std::string good = obs::ToJsonl(MakeKitchenSinkTrace());
  ASSERT_TRUE(obs::FromJsonl(good).ok());

  // Missing header.
  const size_t first_newline = good.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  EXPECT_FALSE(obs::FromJsonl(good.substr(first_newline + 1)).ok());

  // Foreign header.
  EXPECT_FALSE(
      obs::FromJsonl("{\"other_trace\":1,\"node_count\":4,"
                     "\"max_attempts\":3}\n")
          .ok());

  // Unsupported version.
  EXPECT_FALSE(
      obs::FromJsonl("{\"sep2p_trace\":2,\"node_count\":4,"
                     "\"max_attempts\":3}\n")
          .ok());

  const std::string header =
      "{\"sep2p_trace\":1,\"node_count\":4,\"max_attempts\":3}\n";
  // Unknown event key.
  EXPECT_FALSE(
      obs::FromJsonl(header + "{\"t\":1,\"k\":\"send\",\"bogus\":2}\n").ok());
  // Unknown event kind.
  EXPECT_FALSE(
      obs::FromJsonl(header + "{\"t\":1,\"k\":\"teleport\"}\n").ok());
  // Malformed syntax.
  EXPECT_FALSE(obs::FromJsonl(header + "{\"t\":1,\"k\":\"send\"\n").ok());
  EXPECT_FALSE(obs::FromJsonl(header + "not json at all\n").ok());
}

TEST(ChromeTraceTest, IsValidJsonAndPairsEverySpan) {
  const Trace trace = MakeKitchenSinkTrace();
  const std::string chrome = obs::ToChromeTrace(trace);

  JsonValidator validator(chrome);
  EXPECT_TRUE(validator.Valid()) << chrome;
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);

  // Every span open has a matching close; each such pair becomes one
  // "X" complete event, as does every routing leg (it has a duration).
  size_t begins = 0, ends = 0, routes = 0;
  for (const Event& e : trace.events) {
    if (e.kind == EventKind::kSpanBegin) ++begins;
    if (e.kind == EventKind::kSpanEnd) ++ends;
    if (e.kind == EventKind::kRoute) ++routes;
  }
  EXPECT_EQ(begins, ends);
  size_t complete_events = 0;
  for (size_t pos = chrome.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = chrome.find("\"ph\":\"X\"", pos + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, begins + routes);
}

TEST(ChromeTraceTest, LiveTraceExportIsValidJson) {
  sim::Parameters params;
  params.n = 800;
  params.actor_count = 8;
  params.cache_size = 128;
  std::vector<sim::MessageFailureSetting> settings(1);
  settings[0].drop_probability = 0.05;
  settings[0].jitter_mean_us = 10'000;

  std::vector<obs::TraceRecorder> recorders;
  sim::SweepObservers observers;
  observers.recorders = &recorders;
  auto points = sim::RunMessageFailureSweep(params, settings, /*trials=*/1,
                                            &observers);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(recorders.size(), 1u);

  const std::string chrome = obs::ToChromeTrace(recorders[0].trace());
  JsonValidator validator(chrome);
  EXPECT_TRUE(validator.Valid());

  size_t begins = 0, ends = 0;
  for (const Event& e : recorders[0].trace().events) {
    if (e.kind == EventKind::kSpanBegin) ++begins;
    if (e.kind == EventKind::kSpanEnd) ++ends;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

}  // namespace
}  // namespace sep2p
