#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/**
 * @file
 * The three benchmark workloads behind one interface.  A workload
 * builds its inputs and references from the seed (untimed), sets up a
 * warm serving state (timed as setup_s), and serves timed samples.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/** What one timed sample produced. */
struct Sample {
    double hostSeconds = 0;       ///< wall time of the sample
    unsigned requests = 0;        ///< requests the sample served
    unsigned verified = 0;        ///< requests that passed the check
    unsigned refused = 0;         ///< partly shed, served part correct
    double tokens = 0;            ///< activation columns / tokens served
    std::vector<double> modeled;  ///< modeled seconds per request
    double deadlineMet = 0;       ///< tokens or GEMMs within deadline
    double deadlineTotal = 0;     ///< tokens or GEMMs offered
};

/** One per-layer metric value with its unit. */
struct Metric {
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Run-wide settings handed to every workload. */
struct Settings {
    std::uint64_t seed = 1;
    unsigned hands = 1; ///< session worker threads (benchmark thread aside)
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Worker threads the workload's sessions run (recorded). */
    virtual unsigned workers() const = 0;
    /** Builds inputs and output references from the seed (untimed). */
    virtual void prepare() = 0;
    /** Drops any previous state and builds a warm one (timed). */
    virtual void setup() = 0;
    /** Serves one timed sample; spans go to @p tracer when non-null. */
    virtual Sample run(Tracer* tracer) = 0;
    /** NaivePIM over LoCaLUT modeled seconds on the GEMM set. */
    virtual double speedupVsNaive() = 0;
    /**
     * Per-layer metrics of the traced run: layer probes on the
     * workload's own inputs plus what the traced samples recorded.
     */
    virtual void layerMetrics(const Tracer& tracer, Metrics& out) = 0;
    /** Words describing the workload's shape for the run metadata. */
    virtual std::string describe() const = 0;

    /** Corrupts one output value of the next sample before its check
     * (the checker self-test). */
    void corruptNext() { corrupt_ = true; }

  protected:
    bool corrupt_ = false;
};

/** The workload named @p name, or null when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Settings& settings);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H_
