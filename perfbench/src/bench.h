#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the perfbench program: clocks, sample summaries,
 * the in-memory span tracer, seeded input generation and the
 * independent output check.  Everything here runs on the benchmark's
 * own thread; none of it is part of liblocalut.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kernels/gemm.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The highest percentile of @p values that still has at least ten
 * samples beyond it: the sorted value with exactly ten larger samples.
 * While that value would sit at or below the median (fewer than 21
 * samples) it is the maximum instead.  @p percentile
 * receives the percentile the value stands for.
 */
double tail(std::vector<double> values, double& percentile);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/**
 * Moves the calling thread to the @p turn-th CPU (modulo the CPUs the
 * process started with).  On a shared host one CPU can run slower than
 * the others for seconds at a time; rotating the benchmark thread from
 * sample to sample lets each run see every CPU, instead of the whole
 * run landing on whichever one the kernel picked first.  Threads the
 * caller creates while pinned inherit the pin, so only single-threaded
 * workloads rotate.
 */
void rotateCpu(unsigned turn);

/** Lets the calling thread run on every CPU the process started with. */
void unpinCpu();

/** CPUs the process started with (what `nproc` prints). */
unsigned cpuCount();

/**
 * In-memory span recorder.  A span is (name, start, end, parent,
 * request id); spans nest on the calling thread, so a layer's self
 * time is its duration minus the durations of its direct children.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        double start = 0, end = 0; ///< seconds since the tracer began
        int parent = -1;           ///< index of the enclosing span
        std::uint64_t request = 0; ///< request the span belongs to
        double childSeconds = 0;   ///< summed direct-child durations
    };

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer* tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        int index_ = -1;
    };

    /** Spans opened from now on belong to request @p id. */
    void beginRequest(std::uint64_t id) { request_ = id; }

    /** Per-name self-time samples, in seconds. */
    std::map<std::string, std::vector<double>> selfSeconds() const;

    /** Per request id, the summed duration of the spans named @p name. */
    std::map<std::uint64_t, double> requestSeconds(
        const std::string& name) const;

    /** Writes every span as one JSON object per line. */
    bool write(const std::string& path) const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::uint64_t request_ = 0;
};

/**
 * Seeded quantized-matrix generator.  Codes follow the distribution a
 * quantized Gaussian tensor has (the same one makeRandomProblem draws)
 * but are sampled from a precomputed code table, so building the 85M
 * weights of a 12-layer model costs a fraction of a second.
 */
class InputGen
{
  public:
    explicit InputGen(std::uint64_t seed) : seed_(seed) {}

    /** A rows x cols matrix in @p codec, deterministic per call order. */
    localut::QuantizedMatrix matrix(std::size_t rows, std::size_t cols,
                                    const localut::ValueCodec& codec);

    /** A GEMM problem of the given shape in @p config. */
    localut::GemmProblem problem(std::size_t m, std::size_t k,
                                 std::size_t n,
                                 const localut::QuantConfig& config);

    /** @p count distinct column indices in [0, n), ascending. */
    std::vector<std::size_t> columns(std::size_t n, std::size_t count);

    /** Next raw draw of the generator's stream. */
    std::uint64_t next();

  private:
    std::uint64_t seed_;
    std::uint64_t draws_ = 0;
};

/**
 * Independent output check for one GEMM: referenceGemmInt() on a
 * seed-chosen subset of activation columns, computed once during the
 * untimed preparation and compared against every timed output.
 */
struct ColumnCheck {
    std::vector<std::size_t> columns;
    std::vector<std::int32_t> expected; ///< m x columns.size()
    std::size_t m = 0, n = 0;

    /** Computes the reference for @p problem on @p count columns. */
    static ColumnCheck of(const localut::GemmProblem& problem,
                          InputGen& gen, std::size_t count);

    /** True when @p out (m x n row-major) matches on every column. */
    bool matches(const std::vector<std::int32_t>& out) const;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
