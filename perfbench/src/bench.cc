#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "quant/quantizer.h"

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
tail(std::vector<double> values, double& percentile)
{
    percentile = 100;
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < 21) { // no percentile above the median has ten beyond it
        return values.back();
    }
    percentile = 100.0 * static_cast<double>(n - 10) /
                 static_cast<double>(n);
    return values[n - 11];
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

/** The CPUs the process may run on, as found at first use. */
const std::vector<int>&
startCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set)) {
                    out.push_back(cpu);
                }
            }
        }
        return out;
    }();
    return cpus;
}

void
pinTo(const std::vector<int>& cpus)
{
    if (cpus.empty()) {
        return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) {
        CPU_SET(cpu, &set);
    }
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

} // namespace

void
rotateCpu(unsigned turn)
{
    const std::vector<int>& cpus = startCpus();
    if (!cpus.empty()) {
        pinTo({cpus[turn % cpus.size()]});
    }
}

void
unpinCpu()
{
    pinTo(startCpus());
}

unsigned
cpuCount()
{
    return std::max<unsigned>(1, static_cast<unsigned>(startCpus().size()));
}

// ----------------------------------------------------------------- tracer

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer)
{
    if (tracer_ == nullptr) {
        return;
    }
    Span span;
    span.name = name;
    span.start = since(tracer_->origin_);
    span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    span.request = tracer_->request_;
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back(std::move(span));
    tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr) {
        return;
    }
    Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
    span.end = since(tracer_->origin_);
    tracer_->open_.pop_back();
    if (span.parent >= 0) {
        tracer_->spans_[static_cast<std::size_t>(span.parent)]
            .childSeconds += span.end - span.start;
    }
}

std::map<std::string, std::vector<double>>
Tracer::selfSeconds() const
{
    std::map<std::string, std::vector<double>> out;
    for (const Span& span : spans_) {
        out[span.name].push_back(span.end - span.start - span.childSeconds);
    }
    return out;
}

std::map<std::uint64_t, double>
Tracer::requestSeconds(const std::string& name) const
{
    std::map<std::uint64_t, double> out;
    for (const Span& span : spans_) {
        if (span.name == name) {
            out[span.request] += span.end - span.start;
        }
    }
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    for (const Span& span : spans_) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": "
                     "%.9f, \"parent\": %d, \"request\": %llu}\n",
                     span.name.c_str(), span.start, span.end, span.parent,
                     static_cast<unsigned long long>(span.request));
    }
    return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ inputs

namespace {

/** 65536 codes of a quantized standard Gaussian, per codec. */
const std::vector<std::uint16_t>&
codeTable(const localut::ValueCodec& codec)
{
    static std::map<std::pair<int, unsigned>, std::vector<std::uint16_t>>
        tables;
    auto& table = tables[{static_cast<int>(codec.kind()), codec.bits()}];
    if (table.empty()) {
        localut::Rng rng(0x5eedc0de);
        std::vector<float> values(1u << 16);
        for (float& v : values) {
            v = static_cast<float>(rng.nextGaussian());
        }
        table = localut::Quantizer::quantize(values, 1, values.size(), codec)
                    .codes;
    }
    return table;
}

} // namespace

std::uint64_t
InputGen::next()
{
    localut::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + ++draws_);
    return rng.nextU64();
}

localut::QuantizedMatrix
InputGen::matrix(std::size_t rows, std::size_t cols,
                 const localut::ValueCodec& codec)
{
    const std::vector<std::uint16_t>& table = codeTable(codec);
    localut::QuantizedMatrix out;
    out.rows = rows;
    out.cols = cols;
    out.codec = codec;
    out.codes.resize(rows * cols);
    localut::Rng rng(next());
    std::size_t i = 0;
    while (i < out.codes.size()) {
        std::uint64_t bits = rng.nextU64();
        for (int part = 0; part < 4 && i < out.codes.size(); ++part) {
            out.codes[i++] = table[bits & 0xffff];
            bits >>= 16;
        }
    }
    return out;
}

localut::GemmProblem
InputGen::problem(std::size_t m, std::size_t k, std::size_t n,
                  const localut::QuantConfig& config)
{
    localut::GemmProblem problem;
    problem.w = matrix(m, k, config.weightCodec);
    problem.a = matrix(k, n, config.actCodec);
    return problem;
}

std::vector<std::size_t>
InputGen::columns(std::size_t n, std::size_t count)
{
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) {
        all[i] = i;
    }
    localut::Rng rng(next());
    count = std::min(count, n);
    for (std::size_t i = 0; i < count; ++i) { // partial Fisher-Yates
        std::swap(all[i], all[i + rng.nextBounded(n - i)]);
    }
    all.resize(count);
    std::sort(all.begin(), all.end());
    return all;
}

// ------------------------------------------------------------------- check

ColumnCheck
ColumnCheck::of(const localut::GemmProblem& problem, InputGen& gen,
                std::size_t count)
{
    ColumnCheck check;
    check.m = problem.m();
    check.n = problem.n();
    check.columns = gen.columns(problem.n(), count);
    localut::QuantizedMatrix sub;
    sub.rows = problem.k();
    sub.cols = check.columns.size();
    sub.codec = problem.a.codec;
    sub.scale = problem.a.scale;
    sub.codes.resize(sub.rows * sub.cols);
    for (std::size_t r = 0; r < sub.rows; ++r) {
        for (std::size_t j = 0; j < sub.cols; ++j) {
            sub.codes[r * sub.cols + j] = problem.a.at(r, check.columns[j]);
        }
    }
    check.expected = localut::referenceGemmInt(problem.w, sub);
    return check;
}

bool
ColumnCheck::matches(const std::vector<std::int32_t>& out) const
{
    if (out.size() != m * n) {
        return false;
    }
    const std::size_t c = columns.size();
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < c; ++j) {
            if (out[r * n + columns[j]] != expected[r * c + j]) {
                return false;
            }
        }
    }
    return true;
}

} // namespace perfbench
