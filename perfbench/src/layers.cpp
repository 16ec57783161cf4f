#include "layers.h"

#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/gemm.h"
#include "core/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "quant/quantize.h"

namespace perfbench {

namespace fc = fluid::core;
namespace fn = fluid::nn;
namespace fd = fluid::dist;

namespace {

enum Kind { kConv, kPool, kAct, kDense, kFlatten, kNumKinds };
const char* const kSpanNames[kNumKinds] = {"nn.conv", "nn.pool", "nn.act",
                                           "nn.dense", "nn.flatten"};

Kind KindOf(const fn::Layer& layer) {
  const std::string k = layer.Kind();
  if (k == "Conv2d") return kConv;
  if (k == "MaxPool2d") return kPool;
  if (k == "Dense") return kDense;
  if (k == "Flatten") return kFlatten;
  return kAct;
}

// The LeakyReLU Sequential folds into layer i's conv on the inference
// path, if any (the same test Sequential::FusableLeakyAfter makes).
const fn::LeakyReLU* FoldedLeaky(const fn::Sequential& model, std::size_t i) {
  const auto& layers = model.layers();
  if (i + 1 >= layers.size()) return nullptr;
  if (dynamic_cast<const fn::Conv2d*>(layers[i].get()) == nullptr) {
    return nullptr;
  }
  return dynamic_cast<const fn::LeakyReLU*>(layers[i + 1].get());
}

}  // namespace

LayerProfile ProfileModel(fn::Sequential& model, const fc::Tensor& x,
                          double budget_s, SpanLog& spans, const char* node) {
  constexpr int kMinIters = 15;
  constexpr int kMaxIters = 400;
  constexpr int kSpanIters = 20;
  Samples whole, layer_sum, glue;
  Samples per_kind[kNumKinds];
  int count[kNumKinds] = {};
  const auto& layers = model.layers();

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  int it = 0;
  for (; it < kMaxIters && (it < kMinIters || Clock::now() < deadline); ++it) {
    {
      const auto t0 = Clock::now();
      fc::Tensor y = model.Forward(x, false);
      whole.Add(UsBetween(t0, Clock::now()));
      fc::RecycleTensor(std::move(y));
    }

    double kind_us[kNumKinds] = {};
    int kind_calls[kNumKinds] = {};
    double sum = 0;
    const bool record = it < kSpanIters;
    const std::uint64_t parent = record ? spans.NewId() : 0;
    fc::Tensor t = fc::AcquireTensorCopy(x);
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto t0 = Clock::now();
      Kind kind;
      if (const fn::LeakyReLU* leaky = FoldedLeaky(model, i)) {
        auto& conv = static_cast<fn::Conv2d&>(*layers[i]);
        fc::Tensor next = conv.ForwardFusedLeaky(t, leaky->slope());
        fc::RecycleTensor(std::move(t));
        t = std::move(next);
        kind = kConv;
        ++i;  // the activation ran inside the conv's scatter
      } else {
        kind = KindOf(*layers[i]);
        t = layers[i]->ForwardInference(std::move(t));
      }
      const auto t1 = Clock::now();
      const double us = UsBetween(t0, t1);
      kind_us[kind] += us;
      ++kind_calls[kind];
      sum += us;
      if (record) {
        spans.Record(kSpanNames[kind], node, static_cast<std::uint64_t>(it),
                     parent, t0, t1);
      }
    }
    const auto r1 = Clock::now();
    fc::RecycleTensor(std::move(t));
    if (record) {
      Span s;
      s.id = parent;
      s.trace = static_cast<std::uint64_t>(it);
      s.name = "nn.replay";
      std::snprintf(s.node, sizeof(s.node), "%s", node);
      s.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       r0.time_since_epoch())
                       .count();
      s.dur_us =
          std::chrono::duration_cast<std::chrono::microseconds>(r1 - r0)
              .count();
      spans.Add(s);
    }
    for (int k = 0; k < kNumKinds; ++k) per_kind[k].Add(kind_us[k]);
    if (it == 0) {
      for (int k = 0; k < kNumKinds; ++k) count[k] = kind_calls[k];
    }
    layer_sum.Add(sum);
    glue.Add(UsBetween(r0, r1) - sum);
  }

  LayerProfile p;
  p.forward_us = whole.Quantile(0.5);
  p.conv_us = per_kind[kConv].Quantile(0.5);
  p.pool_us = per_kind[kPool].Quantile(0.5);
  p.act_us = per_kind[kAct].Quantile(0.5);
  p.dense_us = per_kind[kDense].Quantile(0.5);
  p.flatten_us = per_kind[kFlatten].Quantile(0.5);
  p.layer_sum_us = layer_sum.Quantile(0.5);
  p.glue_us = glue.Quantile(0.5);
  p.layer_sum_ratio = p.forward_us > 0 ? p.layer_sum_us / p.forward_us : 0;
  p.convs = count[kConv];
  p.pools = count[kPool];
  p.acts = count[kAct];
  p.denses = count[kDense];
  p.flattens = count[kFlatten];
  return p;
}

double GemmGflops(std::int64_t m, std::int64_t n, std::int64_t k,
                  double budget_s) {
  fc::Rng rng(11);
  const fc::Tensor a = fc::Tensor::UniformRandom({m, k}, rng, -1, 1);
  const fc::Tensor b = fc::Tensor::UniformRandom({k, n}, rng, -1, 1);
  fc::Tensor c({m, n});
  Samples s;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int it = 0; it < 5000 && (it < 10 || Clock::now() < deadline); ++it) {
    const auto t0 = Clock::now();
    fc::Gemm(false, false, m, n, k, 1.0F, a.data().data(), k,
             b.data().data(), n, 0.0F, c.data().data(), n);
    s.Add(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const double secs = s.Quantile(0.5);
  return secs > 0 ? 2.0 * static_cast<double>(m * n * k) / secs * 1e-9 : 0;
}

double QuantizeUs(const fc::Tensor& t, double budget_s) {
  Samples s;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int it = 0; it < 5000 && (it < 10 || Clock::now() < deadline); ++it) {
    const auto t0 = Clock::now();
    fluid::quant::QuantizedTensor q = fluid::quant::QuantizeTensor(t);
    s.Add(UsBetween(t0, Clock::now()));
    fc::PoolPut(std::move(q.data));
  }
  return s.Quantile(0.5);
}

bool CodecReplay(const fd::Message& msg, double budget_s, CodecTimes& out) {
  Samples enc, dec;
  std::vector<std::uint8_t> buf;
  fd::Message back;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int it = 0; it < 5000 && (it < 10 || Clock::now() < deadline); ++it) {
    const auto t0 = Clock::now();
    fd::EncodeMessageInto(msg, buf);
    const auto t1 = Clock::now();
    const fc::Status st = fd::DecodeMessage(buf, back);
    const auto t2 = Clock::now();
    if (!st.ok() || back.seq != msg.seq || back.batch != msg.batch) {
      return false;
    }
    enc.Add(UsBetween(t0, t1));
    dec.Add(UsBetween(t1, t2));
    fd::RecycleMessage(std::move(back));
  }
  out.encode_us = enc.Quantile(0.5);
  out.decode_us = dec.Quantile(0.5);
  out.frame_bytes = static_cast<std::int64_t>(buf.size());
  return true;
}

}  // namespace perfbench
