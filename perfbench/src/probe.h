#pragma once
// Measurement plumbing of the fleet benchmark: exact percentiles with
// their sample counts, an in-memory span log, a timing Transport
// decorator, process counters, and the metric report. Everything here
// observes the library from outside, through its public API.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dist/transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Raw samples of one timing; quantiles are exact (sorted, interpolated).
class Samples {
 public:
  void Reserve(std::size_t n) { v_.reserve(n); }
  void Add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  void Append(const Samples& o);
  std::size_t n() const { return v_.size(); }
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// One span: a timed call at a layer boundary. `trace` groups the spans
/// of one request (the frame seq on transport spans, the iteration on
/// layer-replay spans); `parent` is the span that caused it.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  const char* name = "";  // static storage
  char node[16] = {};
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

/// Spans kept in memory and written out as JSON when the run ends. The
/// log has a fixed capacity so recording never reallocates mid-run;
/// spans past it are counted, not kept.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);
  std::uint64_t NewId() { return next_id_.fetch_add(1); }
  void Add(const Span& s);
  /// Convenience: record [start, end) under a fresh id; returns the id.
  std::uint64_t Record(const char* name, const char* node,
                       std::uint64_t trace, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end);
  std::int64_t dropped() const { return dropped_; }
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
};

/// Shared by every decorated endpoint of one fleet. Recording is off
/// until `on` is set, so the untraced half of a traced run pays one
/// relaxed load per call.
struct LinkProbe {
  std::atomic<bool> on{false};
  SpanLog* spans = nullptr;

  std::mutex mu;  // guards the samples below
  Samples send_us;       // master-side Send/SendBatch call durations
  Samples recv_wait_ms;  // master-side Recv calls that delivered a frame
  std::atomic<std::int64_t> worker_recv_ns{0};  // worker time inside Recv

  void Clear();
};

/// Transport decorator: forwards every call to `inner` and, while the
/// probe is on, times it. `worker_side` selects which end's numbers the
/// calls feed (the worker's Recv time is its idle time).
class TimingTransport final : public fluid::dist::Transport {
 public:
  TimingTransport(fluid::dist::TransportPtr inner, LinkProbe& probe,
                  bool worker_side, std::string node);

  fluid::core::Status Send(const fluid::dist::Message& msg) override;
  fluid::core::Status SendBatch(
      std::span<const fluid::dist::Message> msgs) override;
  fluid::core::Status Recv(fluid::dist::Message& out,
                           std::chrono::milliseconds timeout) override;
  fluid::dist::WireStats wire_stats() const override {
    return inner_->wire_stats();
  }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }
  std::string Describe() const override {
    return "timed:" + inner_->Describe();
  }

 private:
  void RecordSend(const char* name, std::uint64_t trace,
                  Clock::time_point t0, Clock::time_point t1);

  fluid::dist::TransportPtr inner_;
  LinkProbe& probe_;
  bool worker_side_;
  char node_[16] = {};
};

/// Process-wide counters sampled at phase boundaries.
struct ProcessCounters {
  double cpu_s = 0;               // user + system
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
  std::uint64_t allocs = 0;
  std::uint64_t pool_gets = 0;
  std::uint64_t pool_hits = 0;
  Clock::time_point at;

  static ProcessCounters Now();
};

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// Host fingerprint recorded with every result.
struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string simd_tier;
  std::string fluid_num_threads;  // the environment value, "" when unset
  int pool_threads = 0;           // what the thread pool resolved
};
Fingerprint TakeFingerprint();

/// `s` as a quoted JSON string (control characters dropped).
std::string JsonString(const std::string& s);

/// Named metrics of one run, printed for humans as they are added and
/// emitted as one JSON object at the end.
class Report {
 public:
  /// A plain value.
  void Add(const std::string& name, double value, const std::string& unit);
  /// A percentile of `s` (q in [0, 1]) under `name`, printed with its
  /// sample count and the highest percentile that has ten samples beyond
  /// it — so a reader sees whether the named tail is well supported.
  void AddQuantile(const std::string& name, const Samples& s, double q,
                   const std::string& unit);
  /// A line of context (not a metric).
  void Note(const std::string& text);
  std::string MetricsJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::int64_t n;  // -1 for plain values
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
