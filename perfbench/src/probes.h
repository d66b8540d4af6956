#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

/**
 * @file
 * Layer probes: each layer's public entry points timed from outside on
 * inputs shaped like the workload's own.  They give every per-layer
 * metric on every workload, including layers the workload's request
 * path does not cross; the traced samples then replace the probe value
 * wherever the request path itself measured the layer.
 */

#include <string>
#include <vector>

#include "nn/transformer.h"
#include "workload.h"

namespace perfbench {

/** Widest hand count the benchmark uses (4-vCPU hosts: 3 workers). */
constexpr unsigned kMaxHands = 3;
/** Ranks of the sharded workload and of the sharding probe. */
constexpr unsigned kShardRanks = 4;

/** One transformer GEMM role at a given activation width. */
struct RoleShape {
    std::string role;
    std::size_t m = 0, k = 0, n = 0;
};

/** The four GEMM roles (qkv, out_proj, ffn_up, ffn_down) of @p model. */
std::vector<RoleShape> roleShapes(const localut::TransformerConfig& model,
                                  std::size_t n);

/** What the probes run on. */
struct ProbeInput {
    std::string backend = "upmem";
    localut::TransformerConfig model;
    localut::QuantConfig quant{localut::ValueCodec::signedBinary(),
                               localut::ValueCodec::signedBinary()};
    std::size_t n = 8;  ///< activation columns per GEMM
    unsigned hands = 1; ///< the workload's worker count
    unsigned ranks = 1; ///< ranks each GEMM is cut across
    /**
     * Host seconds of one GEMM's submit + wait measured on the
     * workload's own traced path; when positive, session.request_us
     * is this rather than the probe session's figure.
     */
    double requestSeconds = 0;
};

/** Fills every per-layer metric from the layer probes. */
void probeLayers(const ProbeInput& in, InputGen& gen, Metrics& out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H_
