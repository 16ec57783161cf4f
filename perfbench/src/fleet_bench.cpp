// Fleet benchmark: builds an in-process serving fleet, drives it from one
// seeded generator thread (plus one collector thread), checks every reply
// against a reference forward, and prints each metric by name with its
// unit and, for percentiles, its sample count.
//
//   fleet_bench --workload <ht_cpu|ha_link|routed_mixed> --seed <n>
//               --seconds <s> --trace <0|1> --out <dir>
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// of the same workload that switches on the benchmark's own spans (a
// timing Transport decorator on both ends of every link, layer-by-layer
// forward replays) and reports per-layer metrics, the span JSON, and the
// tracing overhead (closed-loop throughput with spans off vs on, same
// fleet, same run). The last stdout line is "RESULT <json>" holding every
// metric of the run; the wrapper (run.py) selects the declared ones.
//
// Workloads (why each exists: perfbench/README.md; BENCHMARK.json declares
// ha_link and routed_mixed, ht_cpu is runnable but not declared):
//   ht_cpu       the paper's High-Throughput plan over real TCP loopback,
//                no emulated link: master serves lower50, one worker
//                serves upper50, max_batch 64. Compute-bound.
//   ha_link      the High-Accuracy pipeline, int8 cut, over the paper's
//                12 ms / 100 Mbit/s emulated link; the master also holds
//                lower50 as standby and the run ends with worker crash /
//                reattach cycles. Link-bound; the paper's failover claim.
//   routed_mixed RequestRouter (least-loaded) over 2 partitions, each a
//                master + worker on its own paper link serving HA int8;
//                3 priority classes with deadlines, square-wave load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer_pool.h"
#include "core/rng.h"
#include "core/tensor_ops.h"
#include "data/synthetic_mnist.h"
#include "dist/master.h"
#include "dist/router.h"
#include "dist/tcp_transport.h"
#include "dist/worker.h"
#include "layers.h"
#include "nn/checkpoint.h"
#include "obs/metrics.h"
#include "probe.h"
#include "quant/quantize.h"
#include "slim/fluid_model.h"
#include "train/model_zoo.h"

#include <sys/resource.h>
#include <unistd.h>

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define PERFBENCH_UNOPTIMIZED 1
#endif

namespace {

using namespace perfbench;
using namespace std::chrono_literals;
namespace fc = fluid::core;
namespace fd = fluid::dist;
namespace fn = fluid::nn;
namespace fs = fluid::slim;

// ---- fixed benchmark parameters ------------------------------------------

constexpr std::uint64_t kModelSeed = 7;  // weights; inputs come from --seed
constexpr std::size_t kBankSize = 4096;  // distinct rendered digits
constexpr int kSetups = 5;               // fleet builds behind setup_s
// routed_mixed runs a control-plane caller beside the data path: it reads
// stats(), wire_stats() and scheduler_stats() of every master every
// kScrapePeriodMs and heartbeats the workers with ProbeWorkers() every
// kProbeEvery-th tick (2 Hz, orchestrator-like). Both wait on the
// master's serving lock, and the heartbeat is an RPC under it. The other
// workloads run without it: on ht_cpu it cost ~6 % throughput and made
// the open-loop p99 swing 4-15 ms between runs.
constexpr double kScrapePeriodMs = 10;
constexpr int kProbeEvery = 50;
constexpr double kMinInt8Agreement = 0.95;  // int8-cut top-1 vs fp32
constexpr std::int64_t kCutStage = 1;
constexpr double kLinkMs = 12.0;            // the paper's measured link
constexpr double kLinkBytesPerS = 100e6 / 8.0;
constexpr std::chrono::milliseconds kProbeTimeout{1000};
constexpr int kGeneratorNice = -10;

// Priority-class mix and per-class deadlines of routed_mixed.
constexpr double kClassShare[3] = {0.2, 0.5, 0.3};  // high, normal, low
constexpr double kClassDeadlineMs[3] = {250, 1000, 4000};
constexpr double kSquareAmplitude = 0.5;  // rate ×1.5 then ×0.5
constexpr double kSquarePeriodS = 0.4;

struct WorkloadSpec {
  const char* name;
  std::size_t closed_k;  // outstanding requests in the closed loop
  double lo_rps;
  double hi_rps;
  double limit_ms;  // latency limit of hi.slo_ok_frac (single class)
  // Bound on client.lag_p99_ms: beyond it the generator fell behind its
  // schedule by a fair share of the latencies it measures, and the run
  // fails rather than report open-loop figures.
  double max_lag_ms;
  bool ht;      // HT plan over TCP loopback; otherwise HA on the paper link
  bool routed;  // RequestRouter over 2 partitions, 3 classes, square wave
  bool crash;   // worker crash / reattach cycles
  // Shares of --seconds for the measured phases.
  double closed_share, lo_share, hi_share, crash_share;
};

// Rates sit at fixed fractions of this host class's measured capacity
// (ht_cpu ~11-12k req/s at K=128; ha_link ~3.8-4.0k req/s at K=256, the
// link's byte limit; routed_mixed ~2x ha_link).
constexpr WorkloadSpec kWorkloads[] = {
    {"ht_cpu", 128, 2000, 6000, 20, 2, true, false, false, 0.35, 0.30, 0.35, 0},
    {"ha_link", 256, 800, 2400, 250, 20, false, false, true, 0.30, 0.20, 0.25,
     0.25},
    {"routed_mixed", 512, 1500, 4000, 0, 20, false, true, false, 0.35, 0.30,
     0.35, 0},
};

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (val == w.name) a.spec = &w;
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a.seconds > 0 &&
                     a.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  return a.spec != nullptr && have_seed && have_seconds && have_trace;
}

// ---- inputs and the reply oracle -----------------------------------------

// Every request draws its input from a bank of digits rendered by
// data::RenderDigit(seed, index); request i uses bank[i % kBankSize].
// Rendering costs ~0.2 ms per image, too slow to do per request at
// 10k req/s, so the bank is rendered once. It holds more distinct images
// than the fleet ever has in flight (K <= 512), so two requests that can
// share a chunk or be in flight together never share an input, and a row
// mix-up in batching or scatter shows as a wrong reply.
struct Bank {
  std::vector<fc::Tensor> images;  // [1, 1, 28, 28] each
  // Reference logits [kBankSize, classes] of each model a reply can name.
  fc::Tensor ref_lower50, ref_upper50, ref_full;
};

fc::Tensor StackImages(const std::vector<fc::Tensor>& images,
                       std::size_t begin, std::size_t count) {
  std::vector<const fc::Tensor*> parts;
  for (std::size_t i = begin; i < begin + count; ++i) parts.push_back(&images[i]);
  return fc::ConcatAxis0(parts);
}

fc::Tensor ReferenceLogits(fn::Sequential& model,
                           const std::vector<fc::Tensor>& images) {
  constexpr std::size_t kChunk = 256;
  std::vector<fc::Tensor> parts;
  for (std::size_t b = 0; b < images.size(); b += kChunk) {
    const std::size_t n = std::min(kChunk, images.size() - b);
    parts.push_back(model.Forward(StackImages(images, b, n), false));
  }
  std::vector<const fc::Tensor*> ptrs;
  for (const auto& p : parts) ptrs.push_back(&p);
  return fc::ConcatAxis0(ptrs);
}

Bank MakeBank(std::uint64_t seed) {
  Bank bank;
  bank.images.resize(kBankSize);
  const fluid::data::SyntheticMnistOptions opt;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < kBankSize; i += threads) {
        bank.images[i] = fluid::data::RenderDigit(
            static_cast<std::int64_t>(i % 10), seed, i, opt);
      }
    });
  }
  for (auto& th : pool) th.join();

  fs::FluidModel fluid = fs::FluidModel::PaperDefault(kModelSeed);
  fn::Sequential lower = fluid.ExtractSubnet(fluid.family().MasterResident());
  fn::Sequential upper = fluid.ExtractSubnet(fluid.family().WorkerResident());
  fn::Sequential full = fluid.ExtractSubnet(fluid.family().Combined());
  bank.ref_lower50 = ReferenceLogits(lower, bank.images);
  bank.ref_upper50 = ReferenceLogits(upper, bank.images);
  bank.ref_full = ReferenceLogits(full, bank.images);
  return bank;
}

constexpr std::int64_t kClasses = 10;

struct ReplyRecord {
  std::uint32_t bank = 0;
  std::uint8_t label = 0;  // index into the collector's label table
  float logits[kClasses] = {};
};

std::int64_t Argmax(const float* v) {
  return std::max_element(v, v + kClasses) - v;
}

struct OracleResult {
  std::int64_t checked = 0;
  std::int64_t bitwise_checked = 0;
  std::int64_t mismatches = 0;
  std::int64_t int8_checked = 0;
  std::int64_t int8_agree = 0;
  std::vector<std::string> errors;  // first few, for the log
};

// fp32 slices must match their reference bitwise (the fused forward is
// bitwise deterministic per sample under any chunk grouping); int8-cut
// pipeline replies must agree with the fp32 full model's top-1 at least
// kMinInt8Agreement of the time. Any other label is a mismatch.
OracleResult CheckReplies(const std::vector<ReplyRecord>& replies,
                          const std::vector<std::string>& labels,
                          const Bank& bank) {
  enum Check { kLower, kUpper, kInt8Full, kUnknown };
  std::vector<Check> how;
  for (const auto& l : labels) {
    if (l == "master:lower50") {
      how.push_back(kLower);
    } else if (l == "worker[0]:upper50") {
      how.push_back(kUpper);
    } else if (l == "pipeline:front+back@worker[0]") {
      how.push_back(kInt8Full);
    } else {
      how.push_back(kUnknown);
    }
  }
  OracleResult r;
  auto fail = [&](const std::string& what) {
    ++r.mismatches;
    if (r.errors.size() < 5) r.errors.push_back(what);
  };
  for (const auto& rep : replies) {
    ++r.checked;
    const auto row = static_cast<std::size_t>(rep.bank) * kClasses;
    switch (how[rep.label]) {
      case kLower:
      case kUpper: {
        const fc::Tensor& ref =
            how[rep.label] == kLower ? bank.ref_lower50 : bank.ref_upper50;
        ++r.bitwise_checked;
        if (std::memcmp(rep.logits, ref.data().data() + row,
                        sizeof(rep.logits)) != 0) {
          fail("bank image " + std::to_string(rep.bank) + " served by " +
               labels[rep.label] + " differs from its reference forward");
        }
        break;
      }
      case kInt8Full:
        ++r.int8_checked;
        if (Argmax(rep.logits) == Argmax(bank.ref_full.data().data() + row)) {
          ++r.int8_agree;
        }
        break;
      case kUnknown:
        fail("unexpected served_by '" + labels[rep.label] + "'");
        break;
    }
  }
  if (r.int8_checked > 0 &&
      static_cast<double>(r.int8_agree) <
          kMinInt8Agreement * static_cast<double>(r.int8_checked)) {
    fail("int8-cut top-1 agreement " +
         std::to_string(static_cast<double>(r.int8_agree) /
                        static_cast<double>(r.int8_checked)) +
         " below the floor");
  }
  return r;
}

// ---- the fleet -----------------------------------------------------------

struct Partition {
  std::unique_ptr<fd::MasterNode> master;
  std::unique_ptr<fd::WorkerNode> worker;
  // Crashed workers are kept until teardown; their threads have ended.
  std::vector<std::unique_ptr<fd::WorkerNode>> crashed;
};

class Fleet {
 public:
  Fleet(const WorkloadSpec& spec, bool traced) : spec_(spec), traced_(traced) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Shutdown(); }

  /// Build models, links, workers and masters, deploy and start serving.
  /// Returns the time spent inside DeployToWorker calls.
  double Build();

  std::future<fc::StatusOr<fd::InferReply>> Submit(
      fc::Tensor x, const fd::SubmitOptions& opts) {
    return router_ ? router_->InferAsync(std::move(x), opts)
                   : parts_[0].master->InferAsync(std::move(x), opts);
  }

  /// ha_link: simulated power failure of the worker.
  void CrashWorker() { parts_[0].worker->Crash(); }
  /// ha_link: a replacement worker on a fresh link; returns the
  /// ReattachWorker time in ms, or a negative value on failure.
  double ReattachWorker();

  std::vector<fd::MasterNode*> masters() const {
    std::vector<fd::MasterNode*> m;
    for (const auto& p : parts_) m.push_back(p.master.get());
    return m;
  }
  fd::RequestRouter* router() const { return router_.get(); }
  std::size_t num_workers() const { return parts_.size(); }
  LinkProbe& probe() { return probe_; }

  fd::WireStats MasterWire() const {
    fd::WireStats w;
    for (const auto& p : parts_) w += p.master->wire_stats();
    return w;
  }
  fd::SchedulerStats SchedStats() const {
    fd::SchedulerStats s;
    for (const auto& p : parts_) {
      const auto t = p.master->scheduler_stats();
      s.batches += t.batches;
      s.coalesced_samples += t.coalesced_samples;
      s.preemptions += t.preemptions;
      s.occupancy += t.occupancy / static_cast<double>(parts_.size());
    }
    return s;
  }
  fd::MasterStats MasterTotals() const {
    fd::MasterStats s;
    for (const auto& p : parts_) {
      const auto t = p.master->stats();
      s.failovers += t.failovers;
      s.stale_replies += t.stale_replies;
    }
    return s;
  }

  void Shutdown() {
    if (router_) router_->Stop();
    for (auto& p : parts_) p.master->StopServing();
    for (auto& p : parts_) {
      if (p.worker) p.worker->Stop();
    }
  }

 private:
  std::pair<fd::TransportPtr, fd::TransportPtr> MakeLink(std::size_t part);
  fd::BatchOptions Options() const;

  const WorkloadSpec& spec_;
  bool traced_;
  LinkProbe probe_;
  std::unique_ptr<fd::TcpListener> listener_;
  std::vector<Partition> parts_;
  std::unique_ptr<fd::RequestRouter> router_;
  int reattaches_ = 0;
};

std::pair<fd::TransportPtr, fd::TransportPtr> Fleet::MakeLink(
    std::size_t part) {
  std::pair<fd::TransportPtr, fd::TransportPtr> ends;
  if (spec_.ht) {
    if (!listener_) listener_ = std::make_unique<fd::TcpListener>(0);
    auto master_end = fd::TcpConnect("127.0.0.1", listener_->port(), 2000ms);
    auto worker_end = listener_->Accept(2000ms);
    master_end.status().ThrowIfError();
    worker_end.status().ThrowIfError();
    ends = {std::move(*master_end), std::move(*worker_end)};
  } else {
    ends = fd::MakeEmulatedLinkPair(std::chrono::duration<double>(kLinkMs * 1e-3),
                                    kLinkBytesPerS);
  }
  if (traced_) {
    const std::string p = std::to_string(part);
    ends.first = std::make_unique<TimingTransport>(std::move(ends.first),
                                                   probe_, false, "m" + p);
    ends.second = std::make_unique<TimingTransport>(std::move(ends.second),
                                                    probe_, true, "w" + p);
  }
  return ends;
}

fd::BatchOptions Fleet::Options() const {
  fd::BatchOptions o;
  o.queue_capacity = 8192;
  o.max_active_reqs = 1024;
  if (spec_.ht) {
    o.max_batch = 64;
  } else {
    // The HA pipeline settings of the repository's ha_quant serving bench.
    o.max_batch = 32;
    o.max_delay = 0ms;
    o.ha_chunk = 8;
    o.ha_window = 16;
  }
  return o;
}

double Fleet::Build() {
  const fs::FluidNetConfig cfg;
  fs::FluidModel fluid = fs::FluidModel::PaperDefault(kModelSeed);
  const auto& family = fluid.family();
  const std::size_t num_parts = spec_.routed ? 2 : 1;
  double deploy_ms = 0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    Partition part;
    part.master = std::make_unique<fd::MasterNode>(cfg);
    auto [master_end, worker_end] = MakeLink(p);
    part.worker = std::make_unique<fd::WorkerNode>(
        "p" + std::to_string(p) + "w0", cfg, std::move(worker_end));
    part.worker->Start();
    part.master->AttachWorker(std::move(master_end));
    fd::Plan plan;
    Clock::time_point t0;
    if (spec_.ht) {
      const auto upper = family.WorkerResident();
      fn::Sequential upper_net = fluid.ExtractSubnet(upper);
      part.master->DeployLocal("lower50",
                               fluid.ExtractSubnet(family.MasterResident()));
      t0 = Clock::now();
      part.master
          ->DeployToWorker("upper50",
                           fd::ModelBlueprint::Standalone(cfg, upper.range.width()),
                           fn::ExtractState(upper_net), 10000ms)
          .ThrowIfError();
      deploy_ms += MsBetween(t0, Clock::now());
      plan.master_standalone = "lower50";
      plan.worker_standalone = "upper50";
      part.master->SetPlan(plan);
      part.master->SetMode(fluid::sim::Mode::kHighThroughput);
    } else {
      const auto combined = family.Combined();
      const std::int64_t width = combined.range.width();
      fn::Sequential full = fluid.ExtractSubnet(combined);
      auto halves = fluid::train::SplitConvNet(cfg, width, full, kCutStage);
      auto back_bp = fd::ModelBlueprint::PipelineBack(cfg, width, kCutStage);
      back_bp.quant.int8_wire = true;
      const fn::StateDict back_state = fn::ExtractState(halves.back);
      part.master->DeployLocal("front", std::move(halves.front));
      if (spec_.crash) {
        part.master->DeployLocal("lower50",
                                 fluid.ExtractSubnet(family.MasterResident()));
        plan.master_standalone = "lower50";
      }
      t0 = Clock::now();
      part.master->DeployToWorker("back", back_bp, back_state, 10000ms)
          .ThrowIfError();
      deploy_ms += MsBetween(t0, Clock::now());
      plan.pipeline_front = "front";
      plan.pipeline_back = "back";
      plan.back_worker = 0;
      part.master->SetPlan(plan);
      part.master->SetMode(fluid::sim::Mode::kHighAccuracy);
    }
    part.master->StartServing(Options());
    parts_.push_back(std::move(part));
  }
  if (spec_.routed) {
    fd::RouterOptions ropts;
    ropts.policy = fd::RoutePolicy::kLeastLoaded;
    router_ = std::make_unique<fd::RequestRouter>(ropts);
    for (auto& p : parts_) router_->AddPartition(p.master.get());
  }
  return deploy_ms;
}

double Fleet::ReattachWorker() {
  Partition& part = parts_[0];
  const fs::FluidNetConfig cfg;
  auto [master_end, worker_end] = MakeLink(0);
  part.crashed.push_back(std::move(part.worker));
  part.worker = std::make_unique<fd::WorkerNode>(
      "p0w" + std::to_string(++reattaches_), cfg, std::move(worker_end));
  part.worker->Start();
  const auto t0 = Clock::now();
  const fc::Status st = part.master->ReattachWorker(0, std::move(master_end), 5000ms);
  const double ms = MsBetween(t0, Clock::now());
  return st.ok() ? ms : -1.0;
}

// ---- load generation -----------------------------------------------------

struct Phase {
  std::string name;
  Samples lat_ms;     // per delivered request, from its scheduled send time
  Samples lag_ms;     // open loop: how late the generator sent
  Samples submit_us;  // the front door's submit call
  Samples class_lat_ms[3];
  std::int64_t sent = 0, ok = 0, failed = 0, within_limit = 0;
  std::int64_t class_sent[3] = {}, class_late[3] = {}, class_expired[3] = {};
  // Closed loop: completions inside [window_begin, window_end] count
  // toward throughput. Set before the first submission.
  bool windowed = false;
  Clock::time_point window_begin{}, window_end{};
  std::int64_t completed_in_window = 0;
  // Closed loop: completions by completion time in windows of win_s from
  // window_begin; throughput is the median of the windows' rates.
  double win_s = 1.0;
  struct Completions {
    std::int64_t n = 0;
    Clock::time_point first{}, last{};
  };
  std::vector<Completions> win_done;

  std::size_t WindowOf(Clock::time_point t) const {
    const double at =
        std::chrono::duration<double>(t - window_begin).count() / win_s;
    return at <= 0 ? 0
                   : std::min(win_done.size() - 1, static_cast<std::size_t>(at));
  }
};

// One thread (the caller) submits; one collector thread resolves. The
// collector blocks on the oldest outstanding future (for at most 500 us
// when completions can come out of order: priority classes, two
// partitions), then sweeps every future that is ready, so each completion
// is stamped when it happens or within one slice.
class Generator {
 public:
  /// `ordered`: the fleet completes requests in submission order (one
  /// class, one serving domain), so the collector may block on the oldest.
  Generator(Fleet& fleet, const Bank& bank, SpanLog* spans, bool ordered)
      : fleet_(fleet), bank_(bank), spans_(spans), ordered_(ordered) {
    replies_.reserve(1 << 20);
    collector_ = std::thread([this] { CollectLoop(); });
  }
  ~Generator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_in_.notify_all();
    collector_.join();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Keep `k` requests outstanding for `warm_s` + `measure_s` seconds;
  /// completions inside the last `measure_s` count toward throughput.
  void ClosedLoop(Phase& ph, std::size_t k, double warm_s, double measure_s);
  /// Poisson arrivals at `rate` (square-wave modulated and drawn across
  /// the three classes when `routed`) for `seconds`.
  void OpenLoop(Phase& ph, double rate, double seconds, std::uint64_t seed,
                bool routed, double limit_ms);
  /// Wait until every submitted request resolved.
  void Drain();
  void set_traced(bool on) { traced_ = on; }

  const std::vector<ReplyRecord>& replies() const { return replies_; }
  const std::vector<std::string>& labels() const { return labels_; }
  std::int64_t attempted() const { return next_index_; }

 private:
  struct Pending {
    std::future<fc::StatusOr<fd::InferReply>> future;
    Clock::time_point scheduled;
    std::uint32_t bank = 0;
    std::uint8_t cls = 1;
    double limit_ms = 0;
    Phase* phase = nullptr;
    std::uint64_t index = 0;
    bool traced = false;
  };

  void SubmitOne(Phase& ph, Clock::time_point scheduled, int cls,
                 double limit_ms, double timeout_ms);
  void CollectLoop();
  void Resolve(Pending& p, Clock::time_point now);

  Fleet& fleet_;
  const Bank& bank_;
  SpanLog* spans_;
  bool ordered_;
  bool traced_ = false;
  std::uint64_t next_index_ = 0;

  std::mutex mu_;
  std::condition_variable cv_in_;    // new pending work or stop
  std::condition_variable cv_done_;  // outstanding dropped
  std::vector<Pending> incoming_;
  std::size_t outstanding_ = 0;
  bool stop_ = false;

  // Collector-owned until Drain() synchronizes.
  std::vector<ReplyRecord> replies_;
  std::vector<std::string> labels_;
  std::thread collector_;
};

void Generator::SubmitOne(Phase& ph, Clock::time_point scheduled, int cls,
                          double limit_ms, double timeout_ms) {
  const std::uint64_t index = next_index_++;
  const auto bank = static_cast<std::uint32_t>(index % kBankSize);
  fc::Tensor x = fc::AcquireTensorCopy(bank_.images[bank]);
  fd::SubmitOptions opts;
  opts.timeout = std::chrono::milliseconds(static_cast<std::int64_t>(timeout_ms));
  opts.priority = static_cast<fd::Priority>(cls);
  const auto t0 = Clock::now();
  auto fut = fleet_.Submit(std::move(x), opts);
  ph.submit_us.Add(UsBetween(t0, Clock::now()));
  ++ph.sent;
  ++ph.class_sent[cls];
  {
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back({std::move(fut), scheduled, bank,
                         static_cast<std::uint8_t>(cls), limit_ms, &ph, index,
                         traced_});
    ++outstanding_;
  }
  cv_in_.notify_one();
}

void Generator::ClosedLoop(Phase& ph, std::size_t k, double warm_s,
                           double measure_s) {
  const auto start = Clock::now();
  ph.windowed = true;
  ph.window_begin = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(warm_s));
  ph.window_end = ph.window_begin + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(measure_s));
  const auto windows = std::max<std::size_t>(1, static_cast<std::size_t>(measure_s));
  ph.win_s = measure_s / static_cast<double>(windows);
  ph.win_done.assign(windows, {});
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait_until(lock, ph.window_end,
                          [&] { return outstanding_ < k; });
    }
    const auto now = Clock::now();
    if (now >= ph.window_end) break;
    SubmitOne(ph, now, 1, 0, 30000);
  }
  Drain();
}

void Generator::OpenLoop(Phase& ph, double rate, double seconds,
                         std::uint64_t seed, bool routed, double limit_ms) {
  fc::Rng rng(seed);
  // Thinning: draw at the peak rate, keep each arrival with probability
  // rate(t) / peak, which gives the square-wave-modulated process.
  const double peak = routed ? rate * (1.0 + kSquareAmplitude) : rate;
  const auto t0 = Clock::now() + 2ms;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / peak;
    if (t >= seconds) break;
    int cls = 1;
    if (routed) {
      const bool burst = std::fmod(t, kSquarePeriodS) < kSquarePeriodS / 2;
      const double r = rate * (burst ? 1.0 + kSquareAmplitude
                                     : 1.0 - kSquareAmplitude);
      if (rng.Uniform() * peak >= r) continue;
      const double u = rng.Uniform();
      cls = u < kClassShare[0] ? 0 : u < kClassShare[0] + kClassShare[1] ? 1 : 2;
    }
    const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(t));
    std::this_thread::sleep_until(at);
    ph.lag_ms.Add(MsBetween(at, Clock::now()));
    const double limit = routed ? kClassDeadlineMs[cls] : limit_ms;
    SubmitOne(ph, at, cls, limit, routed ? kClassDeadlineMs[cls] : 30000);
  }
  Drain();
}

void Generator::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return outstanding_ == 0; });
}

void Generator::Resolve(Pending& p, Clock::time_point now) {
  auto reply = p.future.get();
  Phase& ph = *p.phase;
  if (ph.windowed && now >= ph.window_begin && now <= ph.window_end) {
    ++ph.completed_in_window;
    auto& w = ph.win_done[ph.WindowOf(now)];
    if (w.n++ == 0) w.first = now;
    w.last = now;
  }
  if (!reply.ok()) {
    ++ph.failed;
    if (reply.status().code() == fc::StatusCode::kDeadlineExceeded) {
      ++ph.class_expired[p.cls];
    }
    if (ph.failed <= 3) {
      std::fprintf(stderr, "request failed (%s): %s\n", ph.name.c_str(),
                   reply.status().ToString().c_str());
    }
    return;
  }
  const double ms = MsBetween(p.scheduled, now);
  ++ph.ok;
  ph.lat_ms.Add(ms);
  ph.class_lat_ms[p.cls].Add(ms);
  if (ms <= p.limit_ms) ++ph.within_limit;
  if (ms > kClassDeadlineMs[p.cls]) ++ph.class_late[p.cls];
  if (p.traced && spans_ != nullptr) {
    spans_->Record("client.request", "client", p.index, 0, p.scheduled, now);
  }

  ReplyRecord rec;
  rec.bank = p.bank;
  std::size_t label = 0;
  while (label < labels_.size() && labels_[label] != reply->served_by) ++label;
  if (label == labels_.size()) labels_.push_back(reply->served_by);
  rec.label = static_cast<std::uint8_t>(label);
  const auto logits = reply->logits.data();
  if (logits.size() == static_cast<std::size_t>(kClasses)) {
    std::memcpy(rec.logits, logits.data(), sizeof(rec.logits));
  } else {
    std::fill(std::begin(rec.logits), std::end(rec.logits), NAN);
  }
  replies_.push_back(rec);
  fc::RecycleTensor(std::move(reply->logits));
}

void Generator::CollectLoop() {
  std::list<Pending> open;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_in_.wait(lock, [&] { return stop_ || !incoming_.empty() || !open.empty(); });
      if (stop_ && incoming_.empty() && open.empty()) return;
      for (auto& p : incoming_) open.push_back(std::move(p));
      incoming_.clear();
    }
    if (ordered_) {
      open.front().future.wait();
    } else {
      open.front().future.wait_for(500us);
    }
    std::size_t done = 0;
    for (auto it = open.begin(); it != open.end();) {
      if (it->future.wait_for(0s) != std::future_status::ready) {
        ++it;
        continue;
      }
      Resolve(*it, Clock::now());
      it = open.erase(it);
      ++done;
    }
    if (done > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        outstanding_ -= done;
      }
      cv_done_.notify_all();
    }
  }
}

// ---- the control-plane caller --------------------------------------------

struct ControlPlane {
  Samples scrape_ms;  // every metrics read, pooled
  Samples stats_us, probe_ms;
  std::int64_t lost_workers = 0;  // probes that found a worker dead
  Samples reattach_ms;
  std::int64_t crash_cycles = 0;
  std::int64_t failed_reattaches = 0;
};

// Times the control-plane calls on every master at a fixed period until
// `stop` (see kScrapePeriodMs).
void ScrapeLoop(Fleet& fleet, ControlPlane& cp, const std::atomic<bool>& stop,
                SpanLog* spans) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kScrapePeriodMs));
  auto next = Clock::now() + period;
  for (std::int64_t tick = 1; !stop.load(); ++tick) {
    std::this_thread::sleep_until(next);
    next += period;
    if (stop.load()) break;
    for (fd::MasterNode* m : fleet.masters()) {
      const auto time_ms = [](auto&& call) {
        const auto t0 = Clock::now();
        call();
        return MsBetween(t0, Clock::now());
      };
      const double stats_ms = time_ms([&] { (void)m->stats(); });
      cp.stats_us.Add(stats_ms * 1e3);
      cp.scrape_ms.Add(stats_ms);
      cp.scrape_ms.Add(time_ms([&] { (void)m->wire_stats(); }));
      cp.scrape_ms.Add(time_ms([&] { (void)m->scheduler_stats(); }));
      if (tick % kProbeEvery != 0) continue;
      const std::size_t believed = m->AliveWorkers();
      const auto t0 = Clock::now();
      const std::size_t alive = m->ProbeWorkers(kProbeTimeout);
      const auto t1 = Clock::now();
      cp.probe_ms.Add(MsBetween(t0, t1));
      if (alive < believed) ++cp.lost_workers;
      if (spans != nullptr) spans->Record("control.probe", "control", 0, 0, t0, t1);
    }
  }
}

// ha_link: crash the worker, serve degraded, reattach a replacement,
// serve healthy; repeat until `stop`.
void CrashLoop(Fleet& fleet, ControlPlane& cp, const std::atomic<bool>& stop) {
  constexpr auto kDegraded = 200ms;
  constexpr auto kHealthy = 200ms;
  // Started from the generator thread: drop its raised priority, which the
  // replacement workers started here would otherwise inherit.
  setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 0);
  while (!stop.load()) {
    fleet.CrashWorker();
    ++cp.crash_cycles;
    std::this_thread::sleep_for(kDegraded);
    const double ms = fleet.ReattachWorker();
    if (ms < 0) {
      ++cp.failed_reattaches;
    } else {
      cp.reattach_ms.Add(ms);
    }
    std::this_thread::sleep_for(kHealthy);
  }
}

class ControlThread {
 public:
  template <typename Fn>
  explicit ControlThread(Fn fn) : thread_([this, fn] { fn(stop_); }) {}
  ~ControlThread() { Stop(); }
  ControlThread(const ControlThread&) = delete;
  ControlThread& operator=(const ControlThread&) = delete;
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- the run -------------------------------------------------------------

double Frac(std::int64_t a, std::int64_t b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  const double S = args.seconds;
  const Fingerprint fp = TakeFingerprint();
  std::printf("== fleet benchmark: workload %s, seed %llu, %.0f s, trace %d ==\n",
              spec.name, static_cast<unsigned long long>(args.seed), S,
              args.trace ? 1 : 0);
  std::printf("# host: %s; nproc %u; simd %s; FLUID_NUM_THREADS=%s (pool %d)\n",
              fp.cpu_model.c_str(), fp.nproc, fp.simd_tier.c_str(),
              fp.fluid_num_threads.empty() ? "<unset>"
                                           : fp.fluid_num_threads.c_str(),
              fp.pool_threads);

  const Bank bank = MakeBank(args.seed);
  SpanLog spans(args.trace ? 400000 : 0);
  Report report;

  // Set-up: build the fleet several times, each to its first served
  // reply; the last build serves the run.
  Samples setup_s, deploy_ms;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < (args.trace ? 3 : kSetups); ++i) {
    if (fleet) fleet.reset();
    const auto t0 = Clock::now();
    fleet = std::make_unique<Fleet>(spec, args.trace);
    deploy_ms.Add(fleet->Build());
    fd::SubmitOptions opts;
    opts.timeout = 30000ms;
    auto first = fleet->Submit(fc::AcquireTensorCopy(bank.images[0]), opts).get();
    const auto t1 = Clock::now();
    if (!first.ok()) {
      std::fprintf(stderr, "first request failed: %s\n",
                   first.status().ToString().c_str());
      return 1;
    }
    setup_s.Add(std::chrono::duration<double>(t1 - t0).count());
  }
  fleet->probe().Clear();
  fleet->probe().spans = args.trace ? &spans : nullptr;

  Generator gen(*fleet, bank, args.trace ? &spans : nullptr, !spec.routed);
  ControlPlane cp;
  std::deque<Phase> phases;
  auto phase = [&](const char* name) -> Phase& {
    phases.emplace_back();
    phases.back().name = name;
    phases.back().lat_ms.Reserve(1 << 18);
    phases.back().submit_us.Reserve(1 << 18);
    return phases.back();
  };

  const double warm_s = 1.0;
  const double closed_s = S * spec.closed_share;
  double untraced_rps = 0;
  ProcessCounters pc0, pc1;
  fd::SchedulerStats sched0, sched1;

  std::unique_ptr<ControlThread> scraper;
  if (spec.routed) {
    scraper = std::make_unique<ControlThread>([&](const std::atomic<bool>& stop) {
      ScrapeLoop(*fleet, cp, stop, args.trace ? &spans : nullptr);
    });
  }
  // The submitting thread (this one) runs at a raised priority, set after
  // every other thread exists so none inherits it: it mostly sleeps, and
  // when an arrival is due it should not queue behind the fleet's threads,
  // or the open loop would not follow its schedule. Without the privilege
  // this is a no-op, and client.lag_p99_ms still guards the schedule.
  const bool raised = setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()),
                                  kGeneratorNice) == 0;
  report.Note(std::string("generator thread priority ") +
              (raised ? "raised" : "not raised (no privilege)"));

  // Closed loop (in a traced run: first half untraced, second traced).
  Phase* closed = nullptr;
  if (args.trace) {
    Phase& cu = phase("closed_untraced");
    pc0 = ProcessCounters::Now();
    sched0 = fleet->SchedStats();
    gen.ClosedLoop(cu, spec.closed_k, warm_s, closed_s / 2);
    pc1 = ProcessCounters::Now();
    sched1 = fleet->SchedStats();
    untraced_rps = static_cast<double>(cu.completed_in_window) /
                   std::chrono::duration<double>(cu.window_end - cu.window_begin).count();
    const auto traced_from = Clock::now();
    fleet->probe().on = true;
    gen.set_traced(true);
    closed = &phase("closed_traced");
    const auto wire0 = fleet->MasterWire();
    gen.ClosedLoop(*closed, spec.closed_k, 0.2, closed_s / 2);
    const auto wire1 = fleet->MasterWire();
    const double secs =
        std::chrono::duration<double>(closed->window_end - closed->window_begin).count();
    const double traced_rps = static_cast<double>(closed->completed_in_window) / secs;
    const auto n = static_cast<double>(closed->ok);
    std::printf("-- per layer (traced closed loop, K=%zu) --\n", spec.closed_k);
    {
      LinkProbe& pr = fleet->probe();
      std::lock_guard<std::mutex> lock(pr.mu);
      report.AddQuantile("transport.send_us_p50", pr.send_us, 0.5, "us");
      report.AddQuantile("transport.recv_wait_ms_p50", pr.recv_wait_ms, 0.5, "ms");
      const double wall =
          std::chrono::duration<double>(Clock::now() - traced_from).count();
      report.Add("worker.recv_idle_frac",
                 static_cast<double>(pr.worker_recv_ns.load()) * 1e-9 /
                     (wall * static_cast<double>(fleet->num_workers())),
                 "frac");
    }
    report.Add("transport.bytes_per_req",
               static_cast<double>((wire1.bytes_sent - wire0.bytes_sent) +
                                   (wire1.bytes_recv - wire0.bytes_recv)) / n,
               "B");
    report.Add("transport.frames_per_req",
               static_cast<double>((wire1.frames_sent - wire0.frames_sent) +
                                   (wire1.frames_recv - wire0.frames_recv)) / n,
               "count");
    report.Add("trace.overhead_frac", 1.0 - traced_rps / untraced_rps, "frac");
    std::printf("# closed loop untraced %.1f req/s, traced %.1f req/s\n",
                untraced_rps, traced_rps);
  } else {
    closed = &phase("closed");
    pc0 = ProcessCounters::Now();
    sched0 = fleet->SchedStats();
    gen.ClosedLoop(*closed, spec.closed_k, warm_s, closed_s);
    pc1 = ProcessCounters::Now();
    sched1 = fleet->SchedStats();
  }

  // Open loop at the two fixed rates.
  fluid::obs::MetricsRegistry::Global().Reset();
  const auto sched_open0 = fleet->SchedStats();
  Phase& lo = phase("lo");
  gen.OpenLoop(lo, spec.lo_rps, S * spec.lo_share, args.seed * 1000003 + 1,
               spec.routed, spec.limit_ms);
  Phase& hi = phase("hi");
  gen.OpenLoop(hi, spec.hi_rps, S * spec.hi_share, args.seed * 1000003 + 2,
               spec.routed, spec.limit_ms);
  const auto sched_open1 = fleet->SchedStats();
  // Queue wait by class over the two open-loop phases.
  const fluid::obs::Histogram::Snapshot qwait[3] = {
      fluid::obs::MetricsRegistry::Global()
          .GetHistogram("fluid_sched_queue_wait_ms{class=\"high\"}")
          .Snap(),
      fluid::obs::MetricsRegistry::Global()
          .GetHistogram("fluid_sched_queue_wait_ms{class=\"normal\"}")
          .Snap(),
      fluid::obs::MetricsRegistry::Global()
          .GetHistogram("fluid_sched_queue_wait_ms{class=\"low\"}")
          .Snap()};
  if (scraper) scraper->Stop();

  // ha_link: open loop at the lo rate through crash/reattach cycles.
  Phase* crash = nullptr;
  if (spec.crash) {
    crash = &phase("crash");
    ControlThread chaos([&](const std::atomic<bool>& stop) {
      CrashLoop(*fleet, cp, stop);
    });
    gen.OpenLoop(*crash, spec.lo_rps, S * spec.crash_share,
                 args.seed * 1000003 + 3, false, spec.limit_ms);
    chaos.Stop();
    gen.Drain();
  }
  fleet->probe().on = false;
  const double peak_rss = PeakRssMb();
  const fd::MasterStats totals = fleet->MasterTotals();
  fd::RouterStats rstats;
  if (fleet->router() != nullptr) rstats = fleet->router()->stats();
  fleet->Shutdown();

  // Every reply, every phase (set-up probes excluded), through the oracle.
  std::int64_t attempted = 0, failed = 0, ok = 0;
  Samples submit_us, lag_ms;
  for (const Phase& p : phases) {
    attempted += p.sent;
    failed += p.failed;
    ok += p.ok;
    submit_us.Append(p.submit_us);
    lag_ms.Append(p.lag_ms);
  }
  const OracleResult oracle = CheckReplies(gen.replies(), gen.labels(), bank);
  std::printf("# oracle: %lld replies checked (%lld bitwise vs fp32, %lld "
              "int8-cut with %.4f top-1 agreement), %lld mismatches\n",
              static_cast<long long>(oracle.checked),
              static_cast<long long>(oracle.bitwise_checked),
              static_cast<long long>(oracle.int8_checked),
              Frac(oracle.int8_agree, oracle.int8_checked),
              static_cast<long long>(oracle.mismatches));
  for (const auto& e : oracle.errors) std::fprintf(stderr, "oracle: %s\n", e.c_str());
  for (std::size_t i = 0; i < gen.labels().size(); ++i) {
    std::printf("# served_by label %zu: %s\n", i, gen.labels()[i].c_str());
  }
  bool correct = oracle.mismatches == 0 &&
                 oracle.checked == ok &&
                 static_cast<std::int64_t>(gen.attempted()) == attempted;

  const double lag_p99 = lag_ms.Quantile(0.99);
  if (lag_p99 > spec.max_lag_ms) {
    std::fprintf(stderr,
                 "client.lag_p99_ms %.3f exceeds its %.1f ms bound: the "
                 "generator fell behind, so the open-loop figures are not "
                 "valid\n",
                 lag_p99, spec.max_lag_ms);
    correct = false;
  }

  const double closed_secs =
      std::chrono::duration<double>(closed->window_end - closed->window_begin).count();
  const std::int64_t classes_sent[3] = {
      lo.class_sent[0] + hi.class_sent[0], lo.class_sent[1] + hi.class_sent[1],
      lo.class_sent[2] + hi.class_sent[2]};

  if (!args.trace) {
    std::printf("-- end to end --\n");
    report.AddQuantile("setup_s", setup_s, 0.5, "s");
    // Median over 1-second windows of each window's completion rate,
    // (completions - 1) / (last - first completion).
    Samples rates;
    for (const auto& w : closed->win_done) {
      const double span = std::chrono::duration<double>(w.last - w.first).count();
      if (w.n > 1 && span > 0) rates.Add(static_cast<double>(w.n - 1) / span);
    }
    report.AddQuantile("throughput_rps", rates, 0.5, "1/s");
    report.AddQuantile("lo.p50_ms", lo.lat_ms, 0.5, "ms");
    report.AddQuantile("lo.p99_ms", lo.lat_ms, 0.99, "ms");
    report.AddQuantile("hi.p50_ms", hi.lat_ms, 0.5, "ms");
    report.AddQuantile("hi.p99_ms", hi.lat_ms, 0.99, "ms");
    report.Add("hi.slo_ok_frac", Frac(hi.within_limit, hi.sent), "frac");
    report.Add("peak_rss_mb", peak_rss, "MiB");
    std::printf("-- end to end, workload-specific (printed, not gated) --\n");
    report.Add("fail_frac", Frac(failed, attempted), "frac");
    report.Add("throughput_rps.whole",
               static_cast<double>(closed->completed_in_window) / closed_secs,
               "1/s");
    report.Add("lo.offered_rps", spec.lo_rps, "1/s");
    report.Add("hi.offered_rps", spec.hi_rps, "1/s");
    if (crash != nullptr) {
      report.AddQuantile("crash.p99_ms", crash->lat_ms, 0.99, "ms");
      report.Add("crash.cycles", static_cast<double>(cp.crash_cycles), "count");
    }
    if (spec.routed) {
      Samples high, low;
      high.Append(lo.class_lat_ms[0]);
      high.Append(hi.class_lat_ms[0]);
      low.Append(lo.class_lat_ms[2]);
      low.Append(hi.class_lat_ms[2]);
      report.AddQuantile("high.p99_ms", high, 0.99, "ms");
      report.AddQuantile("low.p99_ms", low, 0.99, "ms");
      std::int64_t missed = 0;
      for (int c = 0; c < 3; ++c) {
        missed += lo.class_late[c] + hi.class_late[c] + lo.class_expired[c] +
                  hi.class_expired[c];
      }
      report.AddQuantile("scrape.p99_ms", cp.scrape_ms, 0.99, "ms");
      report.Add("deadline_miss_frac",
                 Frac(missed, classes_sent[0] + classes_sent[1] + classes_sent[2]),
                 "frac");
    }
    report.AddQuantile("client.lag_p99_ms", lag_ms, 0.99, "ms");
  } else {
    // Process counters over the untraced closed loop.
    const double wall = std::chrono::duration<double>(pc1.at - pc0.at).count();
    const auto reqs = static_cast<double>(phases[0].ok);
    report.Add("process.allocs_per_req",
               static_cast<double>(pc1.allocs - pc0.allocs) / reqs, "count");
    report.Add("process.pool_hit_frac",
               Frac(static_cast<std::int64_t>(pc1.pool_hits - pc0.pool_hits),
                    static_cast<std::int64_t>(pc1.pool_gets - pc0.pool_gets)),
               "frac");
    report.Add("process.cpu_util",
               (pc1.cpu_s - pc0.cpu_s) / (wall * static_cast<double>(fp.nproc)),
               "frac");
    report.Add("process.ctx_switches_per_req",
               static_cast<double>(pc1.ctx_switches - pc0.ctx_switches) / reqs,
               "count");
    const double avg_batch =
        Frac(sched1.coalesced_samples - sched0.coalesced_samples,
             sched1.batches - sched0.batches);
    report.Add("serving_queue.avg_batch", avg_batch, "rows");
    report.Add("serving_queue.occupancy", sched1.occupancy, "frac");
    const auto qn = qwait[1];
    report.Add("serving_queue.queue_wait_p99_ms.normal", qn.Quantile(0.99), "ms");
    const std::int64_t open_reqs = lo.sent + hi.sent;
    report.Add("serving_queue.preemptions_per_kreq",
               1000.0 * Frac(sched_open1.preemptions - sched_open0.preemptions,
                             open_reqs),
               "count");
    report.AddQuantile("client.submit_us_p99", submit_us, 0.99, "us");
    report.AddQuantile("client.lag_p99_ms", lag_ms, 0.99, "ms");
    report.AddQuantile("master.deploy_ms", deploy_ms, 0.5, "ms");
    report.Add("master.failovers", static_cast<double>(totals.failovers), "count");
    report.Add("master.stale_replies", static_cast<double>(totals.stale_replies),
               "count");

    std::printf("-- per layer, workload-specific (printed, not gated) --\n");
    if (spec.crash) {
      report.AddQuantile("master.reattach_ms", cp.reattach_ms, 0.5, "ms");
    }
    if (spec.routed) {
      report.AddQuantile("master.stats_us_p95", cp.stats_us, 0.95, "us");
      report.AddQuantile("master.probe_ms_p50", cp.probe_ms, 0.5, "ms");
      report.Add("serving_queue.queue_wait_p99_ms.high", qwait[0].Quantile(0.99), "ms");
      report.Add("serving_queue.queue_wait_p99_ms.low", qwait[2].Quantile(0.99), "ms");
      report.AddQuantile("router.submit_us_p99", submit_us, 0.99, "us");
      report.Add("router.reroute_frac",
                 Frac(rstats.rerouted_reqs, rstats.routed_reqs), "frac");
      double max_routed = 0, sum_routed = 0;
      for (const auto& p : rstats.partitions) {
        max_routed = std::max(max_routed, static_cast<double>(p.routed));
        sum_routed += static_cast<double>(p.routed);
      }
      const double mean_routed =
          rstats.partitions.empty()
              ? 0
              : sum_routed / static_cast<double>(rstats.partitions.size());
      report.Add("router.partition_skew",
                 mean_routed > 0 ? max_routed / mean_routed : 0, "ratio");
    }

    // Layer-by-layer replays, after the fleet stopped.
    std::printf("-- per layer, replayed --\n");
    const int serve_b =
        std::max(1, static_cast<int>(std::lround(avg_batch)));
    report.Add("nn.serve_batch", serve_b, "rows");
    const fs::FluidNetConfig cfg;
    fs::FluidModel fluid = fs::FluidModel::PaperDefault(kModelSeed);
    const auto& family = fluid.family();
    const auto combined = family.Combined();
    fn::Sequential full = fluid.ExtractSubnet(combined);
    auto halves = fluid::train::SplitConvNet(cfg, combined.range.width(), full,
                                             kCutStage);
    fn::Sequential lower = fluid.ExtractSubnet(family.MasterResident());
    fn::Sequential upper = fluid.ExtractSubnet(family.WorkerResident());
    struct Target {
      const char* name;
      fn::Sequential* model;
      bool takes_cut;
    };
    const Target targets[] = {{"lower50", &lower, false},
                              {"upper50", &upper, false},
                              {"front", &halves.front, false},
                              {"back", &halves.back, true}};
    fc::Tensor cut_serve;
    for (const int b : {1, serve_b}) {
      const fc::Tensor images = StackImages(bank.images, 0, static_cast<std::size_t>(b));
      const fc::Tensor cut = halves.front.Forward(images, false);
      if (b == serve_b) cut_serve = cut;
      const std::string bname = b == 1 ? "b1" : "bserve";
      for (const Target& t : targets) {
        const LayerProfile lp = ProfileModel(*t.model, t.takes_cut ? cut : images,
                                             0.12, spans, t.name);
        const std::string pre = std::string("nn.") + t.name + "." + bname + ".";
        report.Add(pre + "forward_us", lp.forward_us, "us");
        // Kinds the model has; a LeakyReLU folded into its conv is timed
        // as part of that conv, as the fused forward runs it.
        if (lp.convs > 0) report.Add(pre + "conv_us", lp.conv_us, "us");
        if (lp.pools > 0) report.Add(pre + "pool_us", lp.pool_us, "us");
        if (lp.acts > 0) report.Add(pre + "act_us", lp.act_us, "us");
        if (lp.denses > 0) report.Add(pre + "dense_us", lp.dense_us, "us");
        if (lp.flattens > 0) report.Add(pre + "flatten_us", lp.flatten_us, "us");
        report.Add(pre + "layer_sum_ratio", lp.layer_sum_ratio, "ratio");
        if (std::abs(lp.layer_sum_ratio - 1.0) > 0.05) {
          report.Note(pre + "layer_sum_ratio is off by more than 5%: replay " +
                      std::to_string(lp.layer_sum_us) + " us vs forward " +
                      std::to_string(lp.forward_us) + " us, glue " +
                      std::to_string(lp.glue_us) + " us");
        }
      }
    }
    for (const auto& [m, n, k] : {std::tuple<int, int, int>{16, 1568, 144},
                                  {16, 6272, 9},
                                  {256, 256, 256}}) {
      report.Add("core.gemm." + std::to_string(m) + "x" + std::to_string(n) +
                     "x" + std::to_string(k) + ".gflops",
                 GemmGflops(m, n, k, 0.1), "GFLOP/s");
    }
    report.Add("quant.quantize_us", QuantizeUs(cut_serve, 0.1), "us");
    // The frame this workload ships most: an fp32 input shard (HT fan-out)
    // or an int8 cut-activation chunk (HA pipeline), with an SLO block.
    fd::Message frame;
    if (spec.ht) {
      frame = fd::Message::WithBatch(
          fd::MsgType::kInfer, 42, "upper50",
          StackImages(bank.images, 0, static_cast<std::size_t>(std::max(1, serve_b / 2))));
    } else {
      frame = fd::Message::WithQuantBatch(fd::MsgType::kInfer, 42, "back",
                                          fluid::quant::QuantizeTensor(
                                              halves.front.Forward(
                                                  StackImages(bank.images, 0, 8),
                                                  false)));
    }
    frame.SetSlo(1, 1000);
    CodecTimes codec;
    if (!CodecReplay(frame, 0.1, codec)) {
      std::fprintf(stderr, "codec replay: frame did not decode back\n");
      correct = false;
    }
    report.Add("message.encode_us", codec.encode_us, "us");
    report.Add("message.decode_us", codec.decode_us, "us");
    report.Add("message.frame_bytes", static_cast<double>(codec.frame_bytes), "B");

    const std::string spans_path = args.out_dir + "/" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".spans.json";
    const std::string header = "\"workload\": " + JsonString(spec.name) +
                               ", \"seed\": " + std::to_string(args.seed);
    if (spans.WriteJson(spans_path, header)) {
      report.Note("spans: " + spans_path + " (" +
                  std::to_string(spans.dropped()) + " dropped past capacity)");
    } else {
      report.Note("could not write " + spans_path);
    }
  }

  report.Note("phases: " + [&] {
    std::string s;
    for (const Phase& p : phases) {
      s += p.name + " sent=" + std::to_string(p.sent) + " ok=" +
           std::to_string(p.ok) + " failed=" + std::to_string(p.failed) + "; ";
    }
    return s;
  }());
  if (cp.lost_workers > 0) {
    report.Note("control-plane probes marked a worker dead " +
                std::to_string(cp.lost_workers) + " time(s) outside crash cycles");
  }
  if (cp.failed_reattaches > 0) {
    report.Note(std::to_string(cp.failed_reattaches) + " reattach(es) failed");
    correct = false;
  }

  const std::string fingerprint =
      "{\"cpu_model\": " + JsonString(fp.cpu_model) +
      ", \"nproc\": " + std::to_string(fp.nproc) +
      ", \"simd_tier\": " + JsonString(fp.simd_tier) +
      ", \"fluid_num_threads\": " + JsonString(fp.fluid_num_threads) +
      ", \"pool_threads\": " + std::to_string(fp.pool_threads) +
      ", \"optimized_build\": true}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + report.MetricsJson() +
      ", \"workload\": " + JsonString(spec.name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"host\": " + fingerprint + "}";
  const std::string report_path = args.out_dir + "/" + spec.name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  std::ofstream(report_path) << result << "\n";
  std::printf("RESULT %s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_UNOPTIMIZED
  std::fprintf(stderr,
               "fleet_bench: this binary was not compiled optimized "
               "(__OPTIMIZE__ and NDEBUG); refusing to record numbers\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload <ht_cpu|ha_link|routed_mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 1;
  }
}
