#pragma once
// Per-layer timings taken by calling the library's layers directly: a
// model's forward replayed layer by layer (mirroring Sequential's
// inference fold), the GEMM kernel, the int8 quantizer and the wire codec.

#include <cstdint>
#include <string>

#include "core/tensor.h"
#include "dist/message.h"
#include "nn/sequential.h"
#include "probe.h"

namespace perfbench {

/// Median microseconds per call of each layer kind in one replayed
/// forward, the median whole-forward time of Sequential::Forward on the
/// same input, and the ratio of the summed layer times to it.
struct LayerProfile {
  double forward_us = 0;
  double conv_us = 0;  // Conv2d, with a following LeakyReLU folded in
  double pool_us = 0;
  double act_us = 0;  // activations the fold did not absorb
  double dense_us = 0;
  double flatten_us = 0;
  double layer_sum_us = 0;
  double glue_us = 0;  // replay span minus its layer spans (self time)
  double layer_sum_ratio = 0;
  // Layers of each kind in one forward (a fold counts as one conv).
  int convs = 0, pools = 0, acts = 0, denses = 0, flattens = 0;
};

/// Alternates whole forwards and layer-by-layer replays of `model` on `x`
/// for about `budget_s` seconds. The first iterations' layer spans go to
/// `spans` under a "nn.replay" parent labelled `node`.
LayerProfile ProfileModel(fluid::nn::Sequential& model,
                          const fluid::core::Tensor& x, double budget_s,
                          SpanLog& spans, const char* node);

/// Wall-clock GFLOP/s of core::Gemm on an m×k by k×n product (median of
/// repeated calls).
double GemmGflops(std::int64_t m, std::int64_t n, std::int64_t k,
                  double budget_s);

/// Median microseconds of quant::QuantizeTensor on `t`.
double QuantizeUs(const fluid::core::Tensor& t, double budget_s);

struct CodecTimes {
  double encode_us = 0;
  double decode_us = 0;
  std::int64_t frame_bytes = 0;
};
/// Median microseconds of EncodeMessageInto / DecodeMessage on `msg`.
/// Fails (returns false) if the frame does not decode back.
bool CodecReplay(const fluid::dist::Message& msg, double budget_s,
                 CodecTimes& out);

}  // namespace perfbench
