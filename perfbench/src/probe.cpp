#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/alloc_count.h"
#include "core/buffer_pool.h"
#include "core/parallel.h"
#include "core/simd/gemm_kernel.h"
#include "core/simd/qgemm_kernel.h"

namespace perfbench {

namespace fd = fluid::dist;

void Samples::Append(const Samples& o) {
  v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

namespace {

// The highest of p99.9 / p99 / p95 / p90 / p50 that has at least ten
// samples beyond it out of `n`, as a quantile.
double HighestQualifiedQuantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.90}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

void CopyNode(char (&dst)[16], const char* src) {
  std::strncpy(dst, src, sizeof(dst) - 1);
  dst[sizeof(dst) - 1] = '\0';
}

std::int64_t Us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void SpanLog::Add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

std::uint64_t SpanLog::Record(const char* name, const char* node,
                              std::uint64_t trace, std::uint64_t parent,
                              Clock::time_point start, Clock::time_point end) {
  Span s;
  s.id = NewId();
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  CopyNode(s.node, node);
  s.start_us = Us(start);
  s.dur_us = Us(end) - s.start_us;
  Add(s);
  return s.id;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& header) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  f << "{" << header << ", \"dropped_spans\": " << dropped_
    << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "" : ",\n") << "{\"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"trace\": " << s.trace
      << ", \"name\": \"" << s.name << "\", \"node\": \"" << s.node
      << "\", \"start_us\": " << s.start_us << ", \"dur_us\": " << s.dur_us
      << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void LinkProbe::Clear() {
  std::lock_guard<std::mutex> lock(mu);
  send_us = Samples();
  recv_wait_ms = Samples();
  send_us.Reserve(1 << 20);
  recv_wait_ms.Reserve(1 << 20);
  worker_recv_ns = 0;
}

TimingTransport::TimingTransport(fd::TransportPtr inner, LinkProbe& probe,
                                 bool worker_side, std::string node)
    : inner_(std::move(inner)), probe_(probe), worker_side_(worker_side) {
  CopyNode(node_, node.c_str());
}

void TimingTransport::RecordSend(const char* name, std::uint64_t trace,
                                 Clock::time_point t0, Clock::time_point t1) {
  if (!worker_side_) {
    std::lock_guard<std::mutex> lock(probe_.mu);
    probe_.send_us.Add(UsBetween(t0, t1));
  }
  if (probe_.spans != nullptr) {
    probe_.spans->Record(name, node_, trace, 0, t0, t1);
  }
}

fluid::core::Status TimingTransport::Send(const fd::Message& msg) {
  if (!probe_.on.load(std::memory_order_relaxed)) return inner_->Send(msg);
  const auto t0 = Clock::now();
  auto st = inner_->Send(msg);
  RecordSend("transport.send", static_cast<std::uint64_t>(msg.seq), t0,
             Clock::now());
  return st;
}

fluid::core::Status TimingTransport::SendBatch(
    std::span<const fd::Message> msgs) {
  if (!probe_.on.load(std::memory_order_relaxed)) {
    return inner_->SendBatch(msgs);
  }
  const auto t0 = Clock::now();
  auto st = inner_->SendBatch(msgs);
  RecordSend("transport.send_batch",
             msgs.empty() ? 0 : static_cast<std::uint64_t>(msgs[0].seq), t0,
             Clock::now());
  return st;
}

fluid::core::Status TimingTransport::Recv(fd::Message& out,
                                          std::chrono::milliseconds timeout) {
  if (!probe_.on.load(std::memory_order_relaxed)) {
    return inner_->Recv(out, timeout);
  }
  const auto t0 = Clock::now();
  auto st = inner_->Recv(out, timeout);
  const auto t1 = Clock::now();
  if (worker_side_) {
    probe_.worker_recv_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  } else if (st.ok()) {
    {
      std::lock_guard<std::mutex> lock(probe_.mu);
      probe_.recv_wait_ms.Add(MsBetween(t0, t1));
    }
    if (probe_.spans != nullptr) {
      probe_.spans->Record("transport.recv_wait", node_,
                           static_cast<std::uint64_t>(out.seq), 0, t0, t1);
    }
  }
  return st;
}

ProcessCounters ProcessCounters::Now() {
  ProcessCounters c;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  c.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  c.allocs = fluid::core::AllocCount();
  const auto pool = fluid::core::PoolStatsSnapshot();
  c.pool_gets = pool.gets;
  c.pool_hits = pool.hits;
  c.at = Clock::now();
  return c;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Fingerprint TakeFingerprint() {
  Fingerprint fp;
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) fp.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  fp.nproc = std::thread::hardware_concurrency();
  fp.simd_tier = std::string(fluid::core::simd::ActiveGemmKernel().name) +
                 "/int8:" + fluid::core::simd::ActiveQGemmKernel().name;
  const char* env = std::getenv("FLUID_NUM_THREADS");
  fp.fluid_num_threads = env != nullptr ? env : "";
  fp.pool_threads = fluid::core::NumThreads();
  return fp;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit, -1});
  std::printf("  %-44s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::AddQuantile(const std::string& name, const Samples& s, double q,
                         const std::string& unit) {
  const double value = s.Quantile(q);
  entries_.push_back({name, value, unit, static_cast<std::int64_t>(s.n())});
  const double top = HighestQualifiedQuantile(s.n());
  std::printf("  %-44s %14.6g %s  (n=%zu, median %.6g, p%g %.6g%s)\n",
              name.c_str(), value, unit.c_str(), s.n(), s.Quantile(0.5),
              top * 100.0, s.Quantile(top),
              q <= 0.5 || static_cast<double>(s.n()) * (1.0 - q) >= 10.0
                  ? ""
                  : "; this percentile has <10 samples beyond it");
}

void Report::Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
}

std::string Report::MetricsJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    os << (i == 0 ? "" : ", ") << JsonString(e.name)
       << ": {\"value\": " << v << ", \"unit\": " << JsonString(e.unit);
    if (e.n >= 0) os << ", \"n\": " << e.n;
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
