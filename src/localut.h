#ifndef LOCALUT_LOCALUT_H_
#define LOCALUT_LOCALUT_H_

/**
 * @file
 * Public facade for the LoCaLUT library.  Most applications only need:
 *
 *     #include "localut.h"
 *
 *     localut::InferenceSession session(localut::makeBackend("upmem"));
 *     auto problem = localut::makeRandomProblem(
 *         768, 768, 128, localut::QuantConfig::preset("W1A3"));
 *     auto id = session.submit(problem, localut::DesignPoint::LoCaLut);
 *     auto result = session.wait(id);
 *
 * The one-shot engine remains available for single GEMMs:
 *
 *     localut::GemmEngine engine(localut::PimSystemConfig::upmemServer());
 *     auto result = engine.run(problem, localut::DesignPoint::LoCaLut);
 *
 * See DESIGN.md for the module map and README.md for a walkthrough.
 */

#include "backend/backend.h"          // IWYU pragma: export
#include "backend/bankpim_backend.h"  // IWYU pragma: export
#include "backend/host_backend.h"     // IWYU pragma: export
#include "backend/upmem_backend.h"    // IWYU pragma: export
#include "baselines/pq_gemm.h"        // IWYU pragma: export
#include "banklevel/bank_pim.h"       // IWYU pragma: export
#include "common/parallel.h"          // IWYU pragma: export
#include "dram/timing.h"              // IWYU pragma: export
#include "hostsim/roofline.h"         // IWYU pragma: export
#include "kernels/design_point.h"     // IWYU pragma: export
#include "kernels/exec_engine.h"      // IWYU pragma: export
#include "kernels/functional.h"       // IWYU pragma: export
#include "kernels/gemm.h"             // IWYU pragma: export
#include "lut/canonical_lut.h"        // IWYU pragma: export
#include "lut/canonicalizer.h"        // IWYU pragma: export
#include "lut/capacity.h"             // IWYU pragma: export
#include "lut/packed_lut.h"           // IWYU pragma: export
#include "lut/perf_model.h"           // IWYU pragma: export
#include "lut/planner.h"              // IWYU pragma: export
#include "lut/reordering_lut.h"       // IWYU pragma: export
#include "lut/table_cache.h"          // IWYU pragma: export
#include "nn/accuracy_proxy.h"        // IWYU pragma: export
#include "nn/inference.h"             // IWYU pragma: export
#include "nn/transformer.h"           // IWYU pragma: export
#include "nn/workload.h"              // IWYU pragma: export
#include "quant/code_buffer.h"        // IWYU pragma: export
#include "quant/codec.h"              // IWYU pragma: export
#include "quant/quantizer.h"          // IWYU pragma: export
#include "serving/plan_cache.h"       // IWYU pragma: export
#include "serving/residency.h"        // IWYU pragma: export
#include "serving/scheduler.h"        // IWYU pragma: export
#include "serving/session.h"          // IWYU pragma: export
#include "serving/sharding.h"         // IWYU pragma: export
#include "serving/telemetry.h"        // IWYU pragma: export
#include "serving/token_engine.h"     // IWYU pragma: export
#include "upmem/cost_model.h"         // IWYU pragma: export
#include "upmem/params.h"             // IWYU pragma: export

#endif // LOCALUT_LOCALUT_H_
